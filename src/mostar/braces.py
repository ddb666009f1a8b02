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
from itertools import combinations, permutations, product
from typing import Iterable

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


@lru_cache(maxsize=None)  # asked once per brace, of a few kernels
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
    in `_edge_maps` order."""
    inner, start = [], order
    for k in lengths:
        inner.append(range(start, start + k - 1))
        start += k - 1
    brace = Graph.from_edges(start, [pair for (a, b), path in zip(edges, inner)
                                     for pair in zip((a, *path), (*path, b))])
    loops = [i for i, (x, y) in enumerate(edges) if x == y]
    auts = []
    for pi, sigma in maps:
        for flips in product((False, True), repeat=len(loops)):
            perm = list(pi) + [0] * (start - order)
            flipped = {i for i, f in zip(loops, flips) if f}
            for i, (a, z) in enumerate(edges):
                j = sigma[i]
                path = inner[j]
                if i in flipped or (a != z and pi[a] != edges[j][0]):
                    path = path[::-1]
                for x, y in zip(inner[i], path):
                    perm[x] = y
            auts.append(tuple(perm))
    auts.sort(key=lambda p: p != tuple(range(start)))
    return brace, tuple(auts)


def kernel_braces(
    c: int, sizes: Iterable[int]
) -> dict[int, list[tuple[Graph, tuple[tuple[int, ...], ...], BraceClass]]]:
    """Map each size b in `sizes` to every brace with cyclomatic number
    c = 2 or 3 and b edges, one per isomorphism class, each with its
    automorphism group and its class: its kernel's `classify`, with the
    sorted lengths as path parameters when the brace is 2-connected.
    Each brace and group is a `subdivision` of a kernel.  Any other c
    raises ValueError.

    Two subdivisions are isomorphic exactly when a kernel automorphism
    carries one length tuple to the other, since every isomorphism maps
    branch vertices to branch vertices and paths to paths.  So each
    composition of b over a kernel's edges is kept when it is the
    smallest in its orbit, and the simple graphs are those whose loops
    have length >= 3 and whose parallel classes hold at most one edge of
    length 1.  The edge maps that carry a kept tuple to itself are the
    ones its group is built from."""
    if c not in _KERNELS:
        raise ValueError(f"kernels are tabled for cyclomatic number 2 and 3, got {c}")
    out: dict[int, list] = {b: [] for b in sizes}
    for order, edges in _KERNELS[c]:
        kind = classify(order, edges).kind
        maps = _edge_maps(order, edges)
        loops = [i for i, (x, y) in enumerate(edges) if x == y]
        twins = [(i, j) for j in range(len(edges)) for i in range(j) if edges[i] == edges[j]]
        # a loop has length >= 3: 2 plus its positive part of the composition
        lift = [2 if i in loops else 0 for i in range(len(edges))]
        for b in out:
            for cuts in combinations(range(1, b - 2 * len(loops)), len(edges) - 1):
                lengths = tuple([y - x + up for x, y, up in
                                 zip((0, *cuts), (*cuts, b - 2 * len(loops)), lift)])
                if any(lengths[i] == lengths[j] == 1 for i, j in twins):
                    continue
                stabilizer = []
                for pi, sigma in maps:
                    image = tuple([lengths[j] for j in sigma])
                    if image < lengths:
                        break
                    if image == lengths:
                        stabilizer.append((pi, sigma))
                else:
                    params = None if kind in (COMPOSITE, NOT_TRICYCLIC) else tuple(sorted(lengths))
                    out[b].append((*_subdivide(order, edges, lengths, stabilizer),
                                   BraceClass(kind, params)))
    return out
