"""Every brace of a cyclomatic number, with its class.

The brace of a graph is what remains after repeatedly deleting degree-1
vertices; it has minimum degree >= 2 and carries all of the cycle
structure.  With cyclomatic number c >= 2, suppressing its degree-2
vertices leaves its kernel, a connected multigraph of minimum degree 3 (a
loop counts 2) on at most 2(c - 1) vertices.  `kernel_braces` runs the
suppression backwards.  The kernels are stated, 3 for c = 2 and 15 for
c = 3 (`_KERNELS`); the tests derive them by trying every multigraph
(`tests/_helpers.enumerate_kernels`).  Their automorphisms are found by
brute force, and `subdivision` turns a kernel and one length per edge
into the brace and its automorphism group, with no canonical labelling.
The shift rules' braces are built the same way.

A brace is listed once, as the length tuple that is least in its orbit
under the kernel's edge maps (`_orbit_walk`).  The walk reaches only the
tuples that can be least.  Each kernel's edges are sorted, so a parallel
class is a run of consecutive edges, and the identity vertex map comes
with every order of every class (`_edge_maps`).  A tuple that decreases
somewhere inside a class is carried by the map sorting that class to a
smaller tuple, so it is never least: the walk keeps each class
nondecreasing.  A simple brace has no two edges of length 1 in one class;
on a nondecreasing class that says the second edge, and so every later
one, has length >= 2.  The kept tuples and their stabilizers are those of
the walk over every composition, in the same lexicographic order
(`kernel_braces`).

Each brace carries its class, which `classify` reads off its kernel once
per kernel.  The classes split the connected tricyclic graphs into five
buckets:

  K4_SUBDIVISION   4 branch vertices, six paths in the K4 pattern
  THREE_HUB        3 branch vertices, five paths (two doubled pairs
                   sharing a vertex plus one single path)
  FOUR_THETA       2 branch vertices joined by four parallel paths
  DIGON_RING       4 branch vertices, two doubled pairs linked into a
                   ring by two single paths
  COMPOSITE        the brace has a cut vertex (it splits into a bicyclic
                   part and a unicyclic part at that vertex)

Path parameters are the sorted path lengths between branch vertices (the
length composition over the kernel's edges), the granularity the
extremal case analysis needs.  Peeling a graph's leaves and classifying
it by walking its own suppression survive only as the tests' oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, permutations, product
from typing import Collection, Iterable, Iterator

from .graphs import Graph

K4_SUBDIVISION = "K4_SUBDIVISION"
THREE_HUB = "THREE_HUB"
FOUR_THETA = "FOUR_THETA"
DIGON_RING = "DIGON_RING"
COMPOSITE = "COMPOSITE"
NOT_TRICYCLIC = "NOT_TRICYCLIC"


@dataclass(frozen=True)
class BraceClass:
    kind: str
    path_parameters: tuple[int, ...] | None = None


# The kernels with cyclomatic number 2 and 3, one per isomorphism class, as
# (order, edges), each edge (a, b) with a <= b, in the order `kernel_braces`
# lists them; `tests/_helpers.enumerate_kernels` derives them.
_KERNELS = {
    2: (
        (1, ((0, 0), (0, 0))),
        (2, ((0, 0), (0, 1), (1, 1))),
        (2, ((0, 1), (0, 1), (0, 1))),
    ),
    3: (
        (1, ((0, 0), (0, 0), (0, 0))),
        (2, ((0, 0), (0, 0), (0, 1), (1, 1))),
        (2, ((0, 0), (0, 1), (0, 1), (0, 1))),
        (2, ((0, 0), (0, 1), (0, 1), (1, 1))),
        (2, ((0, 1), (0, 1), (0, 1), (0, 1))),
        (3, ((0, 0), (0, 1), (0, 1), (1, 2), (2, 2))),
        (3, ((0, 0), (0, 1), (0, 2), (1, 1), (2, 2))),
        (3, ((0, 0), (0, 1), (0, 2), (1, 2), (1, 2))),
        (3, ((0, 0), (0, 1), (1, 2), (1, 2), (1, 2))),
        (3, ((0, 1), (0, 1), (0, 2), (0, 2), (1, 2))),
        (4, ((0, 0), (0, 1), (1, 2), (1, 2), (2, 3), (3, 3))),
        (4, ((0, 0), (0, 1), (1, 2), (1, 3), (2, 2), (3, 3))),
        (4, ((0, 0), (0, 1), (1, 2), (1, 3), (2, 3), (2, 3))),
        (4, ((0, 1), (0, 1), (0, 2), (1, 3), (2, 3), (2, 3))),
        (4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
    ),
}


def classify(order: int, edges: tuple[tuple[int, int], ...]) -> BraceClass:
    """The class of every brace on the kernel (order, edges), without the
    path parameters, which `kernel_braces` adds per brace.  A kernel with
    cyclomatic number c = len(edges) - order + 1 other than 3 is
    NOT_TRICYCLIC.  Let c = 3.  A loop at v becomes a cycle through v
    alone, and the kernel is more than that loop, so v is a cut vertex of
    every brace on the kernel: COMPOSITE.  A loop-free kernel is
    2-connected: cyclomatic numbers add over blocks, and a leaf block of
    a loop-free kernel is no bridge (its far end would have degree 1), so
    it is a 2-connected multigraph whose vertices but the cut vertex keep
    all of their degree >= 3 inside it; it has more edges than vertices
    and c >= 2, and two leaf blocks would need c >= 4.  Subdividing keeps
    a multigraph 2-connected, and the kernel's vertices and edges are its
    braces' branch vertices and paths.  A loop-free kernel has at least 2
    and at most 2(c - 1) = 4 vertices: 2 joined by four paths is
    FOUR_THETA; on 3 the pair multiplicities sum to 5 with every vertex of
    degree >= 3, which only 2, 2, 1 meet (THREE_HUB); on 4 the kernel is
    3-regular, K4_SUBDIVISION when its six edges join six distinct pairs.
    Otherwise a pair ab is doubled but not tripled (a tripled pair would
    be a whole component), so a and b each have one more edge; both to c
    would leave d with degree <= 1, so say ac and bd, and cd is doubled:
    DIGON_RING."""
    if len(edges) - order + 1 != 3:
        return BraceClass(NOT_TRICYCLIC)
    if any(a == b for a, b in edges):
        return BraceClass(COMPOSITE)
    if order == 2:
        return BraceClass(FOUR_THETA)
    if order == 3:
        return BraceClass(THREE_HUB)
    return BraceClass(K4_SUBDIVISION if len(set(edges)) == 6 else DIGON_RING)


@lru_cache(maxsize=None)  # asked once per kernel and size, of a few kernels
def _edge_maps(
    order: int, edges: tuple[tuple[int, int], ...]
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The automorphisms of a kernel acting on its edges, as pairs (pi,
    sigma): pi permutes the vertices and edge i goes to edge sigma[i],
    with a parallel class going to the class between the image vertices
    in every possible order.  Loop flips are not listed."""
    classes: dict[tuple[int, int], list[int]] = {}
    for i, e in enumerate(edges):
        classes.setdefault(e, []).append(i)
    out = []
    for pi in permutations(range(order)):
        image = {e: (min(pi[e[0]], pi[e[1]]), max(pi[e[0]], pi[e[1]])) for e in classes}
        if any(len(classes.get(f, ())) != len(classes[e]) for e, f in image.items()):
            continue
        for choice in product(*(permutations(classes[image[e]]) for e in classes)):
            sigma = [0] * len(edges)
            for e, targets in zip(classes, choice):
                for i, j in zip(classes[e], targets):
                    sigma[i] = j
            out.append((pi, tuple(sigma)))
    return out


def subdivision(
    order: int, edges: tuple[tuple[int, int], ...], lengths: tuple[int, ...]
) -> tuple[Graph, tuple[tuple[int, ...], ...]]:
    """The subdivision of the kernel (order, edges) with edge i a path of
    length lengths[i], and its automorphism group as vertex permutations,
    the identity first.  The kernel has every vertex of degree >= 3 and
    each edge (a, b) with a <= b; the brace is a simple graph when every
    loop has length >= 3 and no parallel class holds two edges of length 1.

    Kernel vertex v is brace vertex v, and the inner vertices of edge i
    follow those of edges 0..i-1, numbered from a to b.  The shift rules'
    calibrated roles name these vertices, so the numbering is part of the
    contract (`test_group_realizations_keep_their_labels` and
    `perfbench/reference.json` pin it).  Every automorphism maps branch
    vertices to branch vertices and paths to paths, so the group is the
    kernel's edge maps that keep the lengths, each with either direction
    round every loop; on a simple brace no two of them are equal (at most
    48 for c <= 3)."""
    return _subdivide(order, edges, lengths, [
        (pi, sigma) for pi, sigma in _edge_maps(order, edges)
        if all(lengths[j] == k for j, k in zip(sigma, lengths))])


def _subdivide(
    order: int, edges: tuple[tuple[int, int], ...], lengths: tuple[int, ...],
    maps: list[tuple[tuple[int, ...], tuple[int, ...]]],
) -> tuple[Graph, tuple[tuple[int, ...], ...]]:
    """`subdivision`, given the kernel's edge maps that keep the lengths,
    in `_edge_maps` order.  The inner vertices are numbered edge by edge,
    so an automorphism is pi followed by the image path of each edge in
    edge order: edge i's inner vertices go to those of edge sigma[i],
    reversed when the map turns the path round or, on a loop, in either
    direction.  The identity is first, because `_edge_maps` lists the
    identity vertex map with every class in its own order first."""
    inner, start = [], order
    for k in lengths:
        inner.append(range(start, start + k - 1))
        start += k - 1
    brace = Graph.from_edges(start, [pair for (a, b), path in zip(edges, inner)
                                     for pair in zip((a, *path), (*path, b))])
    auts = []
    for pi, sigma in maps:
        paths = []
        for (a, z), j in zip(edges, sigma):
            path = inner[j]
            if a == z:
                paths.append((path, path[::-1]))
            else:
                paths.append((path if pi[a] == edges[j][0] else path[::-1],))
        auts += [(*pi, *chain.from_iterable(turns)) for turns in product(*paths)]
    return brace, tuple(auts)


def _length_tuples(edges: tuple[tuple[int, int], ...], b: int) -> Iterator[tuple[int, ...]]:
    """In lexicographic order, every tuple of edge lengths summing to b
    with each loop >= 3, nondecreasing along each run of equal edges and
    every edge of a run after its first >= 2: the tuples that can be least
    in their orbit on a simple brace (module docstring)."""
    k = len(edges)
    later = [i > 0 and edges[i - 1] == e for i, e in enumerate(edges)]
    floor = [3 if a == z else 2 if later[i] else 1 for i, (a, z) in enumerate(edges)]
    # least[i]: the least sum of edges i.. when edge i begins a run
    least = [sum(floor[i:]) for i in range(k + 1)]
    # ahead[i]: edges after i in its run; beyond[i]: the least sum past the run
    ahead = [next((j for j in range(i + 1, k) if not later[j]), k) - i - 1 for i in range(k)]
    beyond = [least[i + 1 + ahead[i]] for i in range(k)]
    lengths = [0] * k

    def walk(i: int, left: int) -> Iterator[tuple[int, ...]]:
        low = max(floor[i], lengths[i - 1]) if later[i] else floor[i]
        if i == k - 1:
            if left >= low:
                lengths[i] = left
                yield tuple(lengths)
            return
        step, rest = ahead[i], beyond[i]
        nxt = floor[i + 1] if step else 0
        v = low
        while v + step * max(nxt, v) + rest <= left:
            lengths[i] = v
            yield from walk(i + 1, left - v)
            v += 1

    return walk(0, b)


def _orbit_walk(
    order: int, edges: tuple[tuple[int, int], ...], b: int
) -> Iterator[tuple[tuple[int, ...], list[tuple[tuple[int, ...], tuple[int, ...]]]]]:
    """Every simple brace with b edges on the kernel (order, edges), one
    per isomorphism class, as its orbit-least length tuple with the
    kernel's edge maps that fix it (its stabilizer, in `_edge_maps`
    order), in lexicographic order of the tuples."""
    maps = _edge_maps(order, edges)
    for lengths in _length_tuples(edges, b):
        stabilizer = []
        for pi, sigma in maps:
            image = tuple([lengths[j] for j in sigma])
            if image < lengths:
                break
            if image == lengths:
                stabilizer.append((pi, sigma))
        else:
            yield lengths, stabilizer


def kernel_braces(
    c: int, sizes: Iterable[int], classes: Collection[BraceClass] | None = None,
) -> dict[int, list[tuple[Graph, tuple[tuple[int, ...], ...], BraceClass]]]:
    """Map each size b in `sizes` to every brace with cyclomatic number
    c = 2 or 3 and b edges, one per isomorphism class, each with its
    automorphism group and its class: its kernel's `classify`, with the
    sorted lengths as path parameters when the brace is 2-connected.
    Given `classes`, only the braces of those classes.  Each brace and
    group is a `subdivision` of a kernel.  Any other c raises ValueError.

    Two subdivisions are isomorphic exactly when a kernel automorphism
    carries one length tuple to the other, since every isomorphism maps
    branch vertices to branch vertices and paths to paths.  So a brace is
    kept as the tuple that is least in its orbit, and the simple graphs
    are those whose loops have length >= 3 and whose parallel classes
    hold at most one edge of length 1.  The edge maps that carry a kept
    tuple to itself are the ones its group is built from.

    The walk (`_orbit_walk`) tests only the tuples nondecreasing inside
    each parallel class, with every edge of a class after its first
    >= 2.  It loses no brace: the identity vertex map with the class put
    in sorted order is one of the edge maps, so a tuple that decreases
    inside a class has a smaller image and fails the orbit test, and on a
    nondecreasing class "no two edges of length 1" is "the second edge is
    not 1".  It changes no list: every tuple it skips is one the orbit
    test or the simplicity rule rejects, the tuples it keeps are tested
    against the same maps in the same order, so their stabilizers are the
    same, and it visits them in lexicographic order, the order of the
    compositions of b taken by their cut points.  Sizes and kernels are
    listed in the order given, kernel by kernel within a size.

    With `classes`, a kernel is walked at size b only when some class has
    its kind and either no path parameters or ones summing to b, since a
    2-connected brace's are its path lengths; a walked tuple's class is
    read off its lengths, and a brace and its group are built only for a
    class asked for.  So the list is the full one less the braces of
    other classes, in the same order."""
    if c not in _KERNELS:
        raise ValueError(f"kernels are tabled for cyclomatic number 2 and 3, got {c}")
    out: dict[int, list] = {b: [] for b in sizes}
    for order, edges in _KERNELS[c]:
        kind = classify(order, edges).kind
        two_connected = kind not in (COMPOSITE, NOT_TRICYCLIC)
        for b in out:
            if classes is not None and not any(
                    k.kind == kind and (k.path_parameters is None or sum(k.path_parameters) == b)
                    for k in classes):
                continue
            for lengths, stabilizer in _orbit_walk(order, edges, b):
                cls = BraceClass(kind, tuple(sorted(lengths)) if two_connected else None)
                if classes is None or cls in classes:
                    out[b].append((*_subdivide(order, edges, lengths, stabilizer), cls))
    return out
