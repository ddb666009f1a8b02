"""Shared test utilities: independent oracles and random graph generators.

Everything here deliberately avoids the library's own fast paths (bitset
BFS, shared distance tables, canonical labeling) so tests compare two
genuinely different routes to the same numbers.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import deque
from itertools import combinations, product
from typing import Iterator, NamedTuple

from dataclasses import dataclass

from mostar import Graph, Graph6Error, GraphError, is_connected
from mostar.braces import (
    COMPOSITE, DIGON_RING, FOUR_THETA, K4_SUBDIVISION, NOT_TRICYCLIC, THREE_HUB,
    _KERNELS, BraceClass, _edge_maps, classify,
)
from mostar.enumeration import _cycle_series, _rooted_tree_counts
from mostar.graphs import with_pendants


def cyclomatic_number(g: Graph) -> int:
    """m - n + 1 for a connected graph (3 = tricyclic, 0 = tree)."""
    if not is_connected(g):
        raise GraphError("cyclomatic number requires a connected graph")
    return g.m - g.n + 1


def random_connected(rng: random.Random, n_lo: int = 2, n_hi: int = 10) -> Graph:
    """Random spanning tree plus a random sprinkle of extra edges."""
    n = rng.randint(n_lo, n_hi)
    edges = set()
    for v in range(1, n):
        edges.add(tuple(sorted((v, rng.randrange(v)))))
    extra = rng.randint(0, max(0, n * (n - 1) // 2 - (n - 1)))
    pool = [
        (i, j) for i in range(n) for j in range(i + 1, n)
        if (i, j) not in edges
    ]
    rng.shuffle(pool)
    for e in pool[: rng.randint(0, min(extra, len(pool)))]:
        edges.add(e)
    return Graph.from_edges(n, sorted(edges))


def random_connected_density(rng: random.Random, n_lo: int, n_hi: int) -> Graph:
    """Random spanning tree plus every other pair with probability p, p
    uniform in [0, 1]: from trees to near-complete graphs."""
    n = rng.randint(n_lo, n_hi)
    p = rng.random()
    edges = {tuple(sorted((v, rng.randrange(v)))) for v in range(1, n)}
    edges |= {
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    }
    return Graph.from_edges(n, sorted(edges))


def random_graph(rng: random.Random, n_lo: int, n_hi: int) -> Graph:
    """Every pair an edge with probability p, p uniform in [0, 1]; may be
    disconnected."""
    n = rng.randint(n_lo, n_hi)
    p = rng.random()
    return Graph.from_edges(n, [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ])


def random_twin_rich(rng: random.Random, n_max: int = 16) -> Graph:
    """A random base graph with every vertex replaced by 1-4 twins, open or
    closed per class (an independent set or a clique joined to the classes
    of the base vertex's neighbours), randomly relabelled."""
    while True:
        base = random_graph(rng, 1, n_max)
        sizes = [rng.randint(1, 4) for _ in range(base.n)]
        if sum(sizes) <= n_max:
            break
    starts = list(itertools.accumulate(sizes, initial=0))
    classes = [range(starts[i], starts[i + 1]) for i in range(base.n)]
    edges = []
    for i, cls in enumerate(classes):
        if rng.random() < 0.5:
            edges += itertools.combinations(cls, 2)
        for j in range(i + 1, base.n):
            if base.has_edge(i, j):
                edges += itertools.product(cls, classes[j])
    perm = list(range(starts[-1]))
    rng.shuffle(perm)
    return relabel(Graph.from_edges(starts[-1], edges), perm)


def circulants(n_max: int):
    """Every circulant graph C_n(S) with 1 <= n <= n_max, S any set of jumps
    1..n // 2."""
    for n in range(1, n_max + 1):
        for mask in range(1 << n // 2):
            jumps = [d for d in range(1, n // 2 + 1) if mask >> (d - 1) & 1]
            yield Graph.from_edges(n, sorted({
                (min(i, (i + d) % n), max(i, (i + d) % n))
                for i in range(n) for d in jumps
            }))


def star(n: int) -> Graph:
    """Star on n vertices with center 0."""
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def complete(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}, the side of a vertices first."""
    return Graph.from_edges(a + b, [(i, j) for i in range(a) for j in range(a, a + b)])


def dot_product(g1: Graph, v1: int, g2: Graph, v2: int) -> Graph:
    """Disjoint union of g1 and g2 with v1 and v2 identified.

    g1 keeps its labels and the merged vertex keeps label v1; g2's other
    vertices follow in their original order starting at label g1.n.
    """
    if not 0 <= v1 < g1.n:
        raise GraphError(f"vertex {v1} out of range in first factor")
    if not 0 <= v2 < g2.n:
        raise GraphError(f"vertex {v2} out of range in second factor")
    remap = {}
    nxt = g1.n
    for w in range(g2.n):
        if w == v2:
            remap[w] = v1
        else:
            remap[w] = nxt
            nxt += 1
    edges = g1.edges()
    edges += [(remap[u], remap[v]) for u, v in g2.edges()]
    return Graph.from_edges(g1.n + g2.n - 1, edges)


def neighbors(g: Graph, v: int) -> list[int]:
    """The neighbours of v in increasing order."""
    row = g.adj[v]
    return [w for w in range(row.bit_length()) if row >> w & 1]


def induced(g: Graph, keep: list[int]) -> Graph:
    """Induced subgraph on `keep`, relabeled to 0..len(keep)-1 in order."""
    pos = {v: i for i, v in enumerate(keep)}
    return Graph.from_edges(len(keep), [
        (i, pos[w]) for i, v in enumerate(keep) for w in neighbors(g, v)
        if w in pos and v < w])


def reachable_mask(adj: tuple[int, ...], start: int) -> int:
    """The vertices reachable from `start` in adjacency rows `adj`, as a
    bitmask."""
    seen = frontier = 1 << start
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        nxt &= ~seen
        seen |= nxt
        frontier = nxt
    return seen


def relabel(g: Graph, perm: list[int]) -> Graph:
    """g with vertex v renamed to perm[v]."""
    if sorted(perm) != list(range(g.n)):
        raise GraphError("relabeling is not a permutation")
    adj = [0] * g.n
    for v in range(g.n):
        new = 0
        for w in neighbors(g, v):
            new |= 1 << perm[w]
        adj[perm[v]] = new
    return Graph(g.n, tuple(adj))


def toggle_edge(adj: tuple[int, ...], u: int, v: int) -> tuple[int, ...]:
    """Adjacency rows `adj` with the pair uv added when absent, removed when
    present."""
    out = list(adj)
    out[u] ^= 1 << v
    out[v] ^= 1 << u
    return tuple(out)


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + inner + [(i, i + 5) for i in range(5)])


def hypercube(d: int) -> Graph:
    return Graph.from_edges(1 << d, [
        (v, v | 1 << k) for v in range(1 << d) for k in range(d) if not v >> k & 1
    ])


def random_tree(rng: random.Random, n: int) -> Graph:
    edges = [tuple(sorted((v, rng.randrange(v)))) for v in range(1, n)]
    return Graph.from_edges(n, edges)


def naive_distances(g: Graph, s: int) -> dict[int, int]:
    """Dict-based BFS, no bitsets."""
    adj = {v: [] for v in range(g.n)}
    for u, v in g.edges():
        adj[u].append(v)
        adj[v].append(u)
    dist = {s: 0}
    q = deque([s])
    while q:
        v = q.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                q.append(w)
    return dist


def floyd_warshall(g: Graph) -> list[list[float]]:
    INF = float("inf")
    d = [[INF] * g.n for _ in range(g.n)]
    for v in range(g.n):
        d[v][v] = 0
    for u, v in g.edges():
        d[u][v] = d[v][u] = 1
    for k in range(g.n):
        for i in range(g.n):
            dik = d[i][k]
            if dik == INF:
                continue
            for j in range(g.n):
                if dik + d[k][j] < d[i][j]:
                    d[i][j] = dik + d[k][j]
    return d


def naive_edge_rows(g: Graph) -> list[tuple[int, int, int]]:
    """(m_u, m_v, equidistant) for every edge e = uv, in `g.edges()` order,
    straight from the definition: dict-BFS distances and one comparison of
    every edge f != e."""
    edges = g.edges()
    dist = [naive_distances(g, s) for s in range(g.n)]
    rows = []
    for u, v in edges:
        du, dv = dist[u], dist[v]
        mu = mv = eq = 0
        for x, y in edges:
            if (x, y) == (u, v):
                continue
            fu = min(du[x], du[y])
            fv = min(dv[x], dv[y])
            if fu < fv:
                mu += 1
            elif fv < fu:
                mv += 1
            else:
                eq += 1
        rows.append((mu, mv, eq))
    return rows


def naive_edge_mostar(g: Graph) -> int:
    return sum(abs(mu - mv) for mu, mv, _ in naive_edge_rows(g))


def _partitions(n: int, largest: int | None = None):
    """Every partition of n into parts <= largest, parts non-increasing."""
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


@functools.cache  # the (7, 9) count alone takes about 0.5 s, and two suites ask for it
def brute_connected_class_count(n: int, m: int) -> int:
    """Connected graphs with n vertices and m edges up to isomorphism, by
    Burnside's lemma: the mean, over all n! permutations, of the number of
    connected m-edge graphs on n labelled vertices that a permutation fixes.
    A fixed graph is a union of the permutation's orbits on vertex pairs, so
    the number depends only on the cycle type, which n! / z of the
    permutations share.  Nothing here uses canonical labelling."""
    total = 0
    for parts in _partitions(n):
        perm, start = [], 0
        for k in parts:
            perm += [start + (i + 1) % k for i in range(k)]
            start += k
        orbits, placed = [], set()
        for pair in itertools.combinations(range(n), 2):
            orbit = []
            while pair not in placed:
                placed.add(pair)
                orbit.append(pair)
                pair = tuple(sorted((perm[pair[0]], perm[pair[1]])))
            if orbit:
                orbits.append(orbit)

        # pairs in orbits j, j + 1, ...: a choice that cannot reach m stops
        beyond = [sum(map(len, orbits[j:])) for j in range(len(orbits) + 1)]

        def fixed(i: int, left: int, comp: list[int], pieces: int) -> int:
            """Connected graphs made of the orbits chosen so far plus `left`
            more pairs from orbits i, i + 1, ...; the chosen orbits form
            `pieces` components, comp[v] being vertex v's.  One pair joins
            at most two components, so too few pairs left prune."""
            if pieces - 1 > left:
                return 0
            if left == 0:
                return 1
            count = 0
            for j in range(i, len(orbits)):
                if beyond[j] < left:
                    break
                if len(orbits[j]) <= left:
                    grown, k = comp[:], pieces
                    for u, v in orbits[j]:
                        if not grown[u] >> v & 1:
                            both, k = grown[u] | grown[v], k - 1
                            for x in range(n):
                                if both >> x & 1:
                                    grown[x] = both
                    count += fixed(j + 1, left - len(orbits[j]), grown, k)
            return count

        z = 1
        for k in set(parts):
            z *= k ** parts.count(k) * math.factorial(parts.count(k))
        total += math.factorial(n) // z * fixed(0, m, [1 << v for v in range(n)], n)
    return total // math.factorial(n)


def polya_class_count(m: int, braces) -> int:
    """Connected graphs with m edges whose brace (2-core) is one of
    `braces`, up to isomorphism, by Polya's theorem.  `braces` holds
    (b, group): the brace's edge count and its automorphism group as
    vertex permutations.  Such a graph is its brace with a rooted tree
    hung at every vertex, and two are isomorphic exactly when their braces
    are and an automorphism carries one assignment of trees to the other.
    So a brace contributes [x^(m - b)] of the cycle index of its group on
    the vertices, each cycle of length L replaced by t(x^L), where t counts
    rooted trees by edges.  The sum over the group is taken first, in exact
    integers, and its division by the group order must leave no
    remainder.  Nothing here uses canonical labelling, and of the
    enumerator only `_rooted_tree_counts`, which `test_rooted_trees` checks
    against the listing of `_rooted_trees`."""
    r = _rooted_tree_counts(m)
    count = 0
    for b, group in braces:
        k = m - b
        if k < 0:
            continue
        fixed = 0
        for perm in group:
            poly = [1] + [0] * k
            seen = set()
            for v in range(len(perm)):
                length = 0
                while v not in seen:
                    seen.add(v)
                    v = perm[v]
                    length += 1
                if length:
                    # times t(x^length), truncated at degree k
                    poly = [
                        sum(poly[d - j * length] * r[j] for j in range(d // length + 1))
                        for d in range(k + 1)
                    ]
            fixed += poly[k]
        q, rest = divmod(fixed, len(group))
        assert rest == 0, (b, len(group), fixed)
        count += q
    return count


def enumerate_kernels(c: int) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """The kernels with cyclomatic number c >= 2, one per isomorphism class:
    connected multigraphs with minimum degree 3 (a loop counts 2), loops
    and parallel edges allowed, as (order, edges), each edge (a, b) with
    a <= b.  Degrees sum to 2(order + c - 1) >= 3 order, so order <=
    2(c - 1); every multiset of edges of each order is tried, and its
    smallest sorted edge list over all relabellings keeps the class.  The
    oracle for `braces._KERNELS`."""
    out = {}
    for order in range(1, 2 * c - 1):
        slots = [(a, b) for a in range(order) for b in range(a, order)]
        perms = list(itertools.permutations(range(order)))
        for edges in itertools.combinations_with_replacement(slots, order + c - 1):
            deg = [0] * order
            for a, b in edges:
                deg[a] += 1
                deg[b] += 1
            if min(deg) < 3:
                continue
            reach = {0}
            for _ in range(order):
                reach |= {x for e in edges if e[0] in reach or e[1] in reach for x in e}
            if len(reach) < order:
                continue
            key = min(tuple(sorted((min(p[a], p[b]), max(p[a], p[b])) for a, b in edges))
                      for p in perms)
            out[order, key] = None
    return sorted(out)


def _reference_subdivide(order: int, edges, lengths, maps):
    """`braces._subdivide` assigning each automorphism vertex by vertex:
    pi on the branch vertices, then each inner vertex of edge i to its
    place on edge sigma[i]'s path, for every set of flipped loops, the
    identity moved first."""
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


def reference_kernel_braces(c: int, sizes) -> dict[int, list]:
    """`braces.kernel_braces` by the walk over every composition: each
    tuple of kernel edge lengths summing to b (the cut points of b less
    2 per loop, every loop then lifted by 2) not putting length 1 on two
    edges of a parallel class, kept when no edge map carries it to a
    smaller tuple, with `_reference_subdivide`'s group.  The oracle for
    the walk that visits only the tuples nondecreasing inside each
    parallel class."""
    out: dict[int, list] = {b: [] for b in sizes}
    for order, edges in _KERNELS[c]:
        kind = classify(order, edges).kind
        maps = _edge_maps(order, edges)
        loops = [i for i, (x, y) in enumerate(edges) if x == y]
        twins = [(i, j) for j in range(len(edges)) for i in range(j) if edges[i] == edges[j]]
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
                    out[b].append((*_reference_subdivide(order, edges, lengths, stabilizer),
                                   BraceClass(kind, params)))
    return out


def brace_class_filters() -> dict[str, set | None]:
    """The `classes` values `kernel_braces` is compared with
    `reference_kernel_braces` on, by name: none ("", every brace), the
    DISCOVERY shapes, each shape alone, and a class no brace has (four
    paths of length 1, a multigraph)."""
    from mostar.families import DISCOVERY

    def name(cls: BraceClass) -> str:
        return "-".join(map(str, (cls.kind, *(cls.path_parameters or ()))))

    shapes = sorted({shape for _, shape in DISCOVERY.values() if shape is not None}, key=name)
    return {"": None, "discovery": set(shapes), **{name(s): {s} for s in shapes},
            "absent": {BraceClass(FOUR_THETA, (1, 1, 1, 1))}}


def reference_brace_tails(c: int, hi: int) -> list:
    """`families._brace_tails` by listing every brace up to the cap with
    `kernel_braces`, its `classes` left unset, and dropping those of no
    DISCOVERY shape afterwards: the oracle for the pass that asks
    `kernel_braces` for the DISCOVERY shapes alone, so that it walks only
    the kernels and sizes such a shape can have."""
    from mostar.braces import kernel_braces
    from mostar.families import DISCOVERY, Candidate, _normalize_candidate
    from mostar.indices import model_tails, pendant_model
    from mostar.verify import BICYCLIC, TRICYCLIC

    cap = min(hi, max({3: TRICYCLIC, 2: BICYCLIC}[c].listed_families))
    shapes = {shape for _, shape in DISCOVERY.values()}
    wanted = {poly for poly, _ in DISCOVERY.values()}
    out = []
    for found in kernel_braces(c, range(1, cap + 1)).values():
        for brace, auts, cls in found:
            if cls not in shapes:
                continue
            tails = model_tails(pendant_model(brace.adj))
            for v in sorted({min(g[u] for g in auts) for u in range(brace.n)}):
                poly, holds_from, _ = tails[v]
                if poly in wanted and holds_from <= hi:
                    edges, attach, key = _normalize_candidate(brace, v)
                    out.append((cls, poly, Candidate(key, edges, attach, holds_from, holds_from)))
    return out


def burnside_class_totals(c: int, top: int) -> list[int]:
    """The connected graphs with cyclomatic number c and m edges up to
    isomorphism, for m = 0 .. top, by Burnside's lemma over each kernel's
    automorphisms, with no brace or brace group built.  A graph is a
    kernel of `braces._KERNELS`, a length per kernel edge (every loop of
    length >= 3, no parallel class with two edges of length 1) and a
    rooted tree at every vertex of the subdivision; two are isomorphic
    exactly when a kernel automorphism, an edge map of
    `braces._edge_maps` with either direction round every loop, carries
    one to the other.  A configuration is fixed by such a map exactly when
    its lengths are constant on each edge cycle and its trees on each
    vertex cycle.  An edge cycle of r edges and length l that comes back
    in its own direction gives l - 1 vertex cycles of length r; one that
    comes back reversed gives (l - 1) // 2 of length 2r, and one of length
    r if l - 1 is odd.  With the kernel vertices' cycles, those fix [x^k]
    of the product over the cycles of t(x^L), k the tree edges
    (`enumeration._cycle_series`); the sum over the maps must divide
    exactly by their number (Harary & Palmer, Graphical Enumeration,
    1973)."""
    totals = [0] * (top + 1)
    for order, edges in _KERNELS[c]:
        loops = [i for i, (a, z) in enumerate(edges) if a == z]
        twins = [(i, j) for j in range(len(edges)) for i in range(j) if edges[i] == edges[j]]
        maps = _edge_maps(order, edges)
        fixed = [0] * (top + 1)
        for (pi, sigma), flips in product(maps, product((0, 1), repeat=len(loops))):
            turned = dict(zip(loops, flips))
            cycles, seen = [], set()   # (edges, comes back reversed) per edge cycle
            for i in range(len(edges)):
                cyc, back = [], 0
                while i not in seen:
                    seen.add(i)
                    cyc.append(i)
                    a = edges[i][0]
                    back ^= turned[i] if i in turned else pi[a] != edges[sigma[i]][0]
                    i = sigma[i]
                if cyc:
                    cycles.append((cyc, back))
            base, seen = [], set()   # the kernel vertices' cycles
            for v in range(order):
                length = 0
                while v not in seen:
                    seen.add(v)
                    v, length = pi[v], length + 1
                if length:
                    base.append(length)
            types: dict[tuple[int, tuple[int, ...]], int] = {}
            lengths = [0] * len(edges)

            def fill(j: int, b: int, vertex_cycles: list[int]) -> None:
                # lengths constant on the edge cycles j, j + 1, ...
                if j == len(cycles):
                    if not any(lengths[x] == lengths[y] == 1 for x, y in twins):
                        key = (b, tuple(sorted(vertex_cycles)))
                        types[key] = types.get(key, 0) + 1
                    return
                cyc, back = cycles[j]
                r = len(cyc)
                for value in range(3 if cyc[0] in turned else 1, (top - b) // r + 1):
                    for x in cyc:
                        lengths[x] = value
                    more = [2 * r] * ((value - 1) // 2) + [r] * ((value - 1) % 2) if back \
                        else [r] * (value - 1)
                    fill(j + 1, b + r * value, vertex_cycles + more)

            fill(0, 0, base)
            for (b, cycle_type), count in types.items():
                series = _cycle_series(cycle_type, top - b)
                for k in range(top - b + 1):
                    fixed[b + k] += count * series[k]
        group = len(maps) << len(loops)
        assert all(x % group == 0 for x in fixed), (order, edges)
        totals = [t + x // group for t, x in zip(totals, fixed)]
    return totals

# The composition listing: every composition of a brace's tree edges kept
# once per orbit, its classes counted by Burnside and its all-star graph
# scored.  It is the oracle for the survey's per-brace pass
# (`enumeration._survey_brace`), which counts by the cycle index and lists
# its ties by the equality case of its Jensen step.


def _compositions(
    n_b: int, auts: tuple[tuple[int, ...], ...], counts: list[int], k: int,
) -> Iterator[tuple[tuple[int, ...], list[int], int]]:
    """The isomorphism classes of connected graphs whose brace, on n_b
    vertices, has k edges fewer, grouped by composition: each kept
    composition (the edge count at each brace vertex, as the gaps n_b - 1
    bars leave in k + n_b - 1 slots), its support (the vertices of nonzero
    count) and its number of classes.  `auts` is the brace's automorphism
    group, the identity first, and `counts` is `_rooted_tree_counts(k)`.

    Such a graph is the brace with a rooted tree hung at every vertex, and
    two of them are isomorphic exactly when an automorphism of the brace
    carries one assignment of trees to the other.  A composition is kept
    when it is the least under the whole group.  Every orbit holds
    assignments with the least composition, and those form one orbit of
    its stabiliser, so the composition's classes are the stabiliser's
    orbits on its tree assignments.  By Burnside they number the mean over
    the stabiliser of the assignments each element fixes: those constant
    on each of its cycles on the support, one tree per cycle, of its
    vertices' count."""
    others, end = auts[1:], k + n_b - 1
    for bars in combinations(range(end), n_b - 1):
        comp = tuple([b - a - 1 for a, b in zip((-1, *bars), (*bars, end))])
        stab = []
        for g in others:
            image = tuple([comp[x] for x in g])
            if image < comp:
                break
            if image == comp:
                stab.append(g)
        else:
            support = [v for v in range(n_b) if comp[v]]
            fixed = math.prod([counts[comp[v]] for v in support])  # by the identity
            for g in stab:
                seen, kept = 0, 1
                for v in support:
                    if not seen >> v & 1:
                        kept *= counts[comp[v]]
                        u = v
                        while not seen >> u & 1:
                            seen |= 1 << u
                            u = g[u]
                fixed += kept
            yield comp, support, fixed // (1 + len(stab))


def composition_listing(brace: Graph, auts, m: int) -> tuple[int, int, list[tuple[int, ...]]]:
    """One brace's share of the task with m edges, by listing: the classes
    of every composition `_compositions` keeps, summed, the best all-star
    value, read off the brace's `pendant_model` as the brace term plus
    k(m - 1), and the compositions at it, in listing order."""
    from mostar.indices import pendant_model

    _, sums, rows = pendant_model(brace.adj)
    k = m - brace.m
    count, scored = 0, []
    for comp, support, classes in _compositions(brace.n, auts, _rooted_tree_counts(k), k):
        count += classes
        terms = sums
        for v in support:
            terms = [x + comp[v] * s for x, s in zip(terms, rows[v])]
        scored.append((sum(map(abs, terms)) + k * (m - 1), comp))
    best = max(value for value, _ in scored)
    return count, best, [comp for value, comp in scored if value == best]


# The face walk: every composition over a brace's best corners scored off
# its pendant model.  It is the oracle for the survey's per-brace pass,
# which lists the same ties by the equality case of its Jensen step, at
# sizes the composition listing cannot reach.


def face_walk(brace: Graph, auts, sizes) -> list[tuple[int, list[tuple[int, ...]]]]:
    """Per size m in `sizes`, (best, ties) for the task with m edges: best
    the brace's best corner (`indices.tail_index`), and ties the
    compositions of its k = m - b tree edges over the corners at best
    whose all-star value, the brace term plus k(m - 1), reaches it, each
    least in its orbit under `auts`, in walk order."""
    from mostar.indices import model_tails, pendant_model, tail_index

    _, sums, rows = model = pendant_model(brace.adj)
    tails, out = model_tails(model), []
    for m in sizes:
        k = m - brace.m
        corners = [tail_index(tail, k, m) for tail in tails]
        top = max(corners)
        face = [w for w, value in enumerate(corners) if value == top]
        ties, end = [], k + len(face) - 1
        for bars in combinations(range(end), len(face) - 1):
            comp = [0] * brace.n
            for w, a, b in zip(face, (-1, *bars), (*bars, end)):
                comp[w] = b - a - 1
            comp, terms = tuple(comp), sums
            for w in face:
                if comp[w]:
                    terms = [x + comp[w] * s for x, s in zip(terms, rows[w])]
            if sum(map(abs, terms)) + k * (m - 1) == top and \
                    not any(tuple([comp[x] for x in g]) < comp for g in auts[1:]):
                ties.append(comp)
        out.append((top, ties))
    return out


# The pick listing: every rooted tree listed, and every assignment of
# trees kept, scored and grown.  It is the oracle for the composition
# listing, whose counts and all-star scores stand for every pick.


def _rooted_trees(k_max: int) -> list[list[tuple[int, ...]]]:
    """Entry k lists the rooted trees with k edges, one per isomorphism
    class (OEIS A000081, shifted by one), each as its parent list: vertex
    i + 1 hangs from parent[i], the root being 0.  The trees come as their
    canonical level sequences (the depths in preorder) by the successor
    rule of Beyer and Hedetniemi (SIAM J. Comput. 9, 1980): from the path,
    find the last node p deeper than 1 and its parent q, and refill p.. by
    repeating the sequence from q; stop at the star."""
    out = [[()]]
    for k in range(1, k_max + 1):
        level, depths = [], list(range(k + 1))
        while True:
            last, parents = [0] * (k + 1), []
            for i in range(1, k + 1):
                parents.append(last[depths[i] - 1])
                last[depths[i]] = i
            level.append(tuple(parents))
            p = max((i for i in range(k + 1) if depths[i] > 1), default=0)
            if not p:
                break
            q = parents[p - 1]
            for i in range(p, k + 1):
                depths[i] = depths[i - p + q]
        out.append(level)
    return out


def _hang_trees(
    n_b: int, auts: tuple[tuple[int, ...], ...],
    trees: list[list[tuple[int, ...]]], k: int,
) -> Iterator[tuple[tuple[int, ...], list[int], list[tuple[int, ...]]]]:
    """One assignment per isomorphism class of connected graphs whose brace,
    on n_b vertices, has k edges fewer: each kept composition (the edge
    count at each brace vertex, as the gaps n_b - 1 bars leave in
    k + n_b - 1 slots), its support (the vertices of nonzero count) and its
    kept picks (per support vertex, an index into `trees[count]`; `_grow`
    builds the graph).  `auts` is the brace's automorphism group, the
    identity first, and `trees` comes from `_rooted_trees(k)`.

    Such a graph is the brace with a rooted tree hung at every vertex, and
    two of them are isomorphic exactly when an automorphism of the brace
    carries one assignment of trees to the other.  An assignment is kept
    when it is the least in its orbit: first its composition must be the
    least under the whole group, and then its pick the least under the
    composition's stabiliser, which acts within the vertices of each
    count.  Every orbit holds assignments with the least composition, and
    those form one orbit of the stabiliser, so each class comes out once."""
    others, end = auts[1:], k + n_b - 1
    for bars in combinations(range(end), n_b - 1):
        comp = tuple([b - a - 1 for a, b in zip((-1, *bars), (*bars, end))])
        stab = []
        for g in others:
            image = tuple([comp[x] for x in g])
            if image < comp:
                break
            if image == comp:
                stab.append(g)
        else:
            support = [v for v in range(n_b) if comp[v]]
            where = {v: i for i, v in enumerate(support)}
            moves = [[where[g[v]] for v in support] for g in stab]
            yield comp, support, [
                pick for pick in product(*(range(len(trees[comp[v]])) for v in support))
                if not any(tuple([pick[i] for i in mv]) < pick for mv in moves)
            ]


def _grow(brace: tuple[int, ...], trees: list[list[tuple[int, ...]]],
          comp: tuple[int, ...], support: list[int], pick: tuple[int, ...]) -> tuple[int, ...]:
    """The adjacency rows of `brace` with the trees of `pick` hung on."""
    adj = list(brace)
    for v, t in zip(support, pick):
        base = len(adj) - 1
        for p in trees[comp[v]][t]:
            p = v if p == 0 else base + p
            adj[p] |= 1 << len(adj)
            adj.append(1 << p)
    return tuple(adj)


def _tree_scores(trees: list[list[tuple[int, ...]]], m: int) -> list[list[int]]:
    """What each tree in `trees` adds to the index of a graph with m edges:
    |m - 1 - 2 s| per tree edge, s edges below it (see `indices`)."""
    def score(parents: tuple[int, ...]) -> int:
        size = [1] * (len(parents) + 1)  # vertices at or below each vertex
        for i in range(len(parents) - 1, -1, -1):
            size[parents[i]] += size[i + 1]
        return sum(abs(m + 1 - 2 * s) for s in size[1:])
    return [[score(parents) for parents in level] for level in trees]


def _values(model, scores: list[list[int]], comp: tuple[int, ...],
            support: list[int], picks: list[tuple[int, ...]]) -> list[int]:
    """The index of each pick on one composition, off the brace's
    `pendant_model`: the brace term once, plus each tree's score."""
    _, sums, rows = model
    for v in support:
        a = comp[v]
        sums = [x + a * s for x, s in zip(sums, rows[v])]
    base = sum(map(abs, sums))
    tables = [scores[comp[v]] for v in support]
    return [base + sum(map(list.__getitem__, tables, pick)) for pick in picks]


def canon_connected_class_count(n: int, m: int) -> int:
    """Labeled enumeration of every m-edge subset, connectivity filter,
    canonical dedup."""
    from mostar import canonical_form, is_connected

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    seen = set()
    for combo in itertools.combinations(pairs, m):
        g = Graph.from_edges(n, combo)
        if not is_connected(g):
            continue
        seen.add(canonical_form(g))
    return len(seen)


def _reference_refine(n: int, adj: tuple[int, ...], cells: list[list[int]]) -> list[list[int]]:
    """Refine an ordered partition to equitability.

    Each round splits every cell by the vector of neighbour counts into all
    current cells; groups are ordered by ascending signature, which depends
    only on the partition structure, never on vertex labels.
    """
    while True:
        masks = []
        for cell in cells:
            m = 0
            for v in cell:
                m |= 1 << v
            masks.append(m)
        out: list[list[int]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            groups: dict[int, list[int]] = {}
            for v in cell:
                row = adj[v]
                sig = 0
                for m in masks:
                    sig = sig << 5 | (row & m).bit_count()
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                out.append(cell)
            else:
                changed = True
                for sig in sorted(groups):
                    out.append(groups[sig])
        cells = out
        if not changed:
            return cells


class _ReferenceSearch:
    def __init__(self, n: int, adj: tuple[int, ...]):
        self.n = n
        self.adj = adj
        self.best_key: tuple[int, ...] | None = None
        self.best_lam: list[int] | None = None
        self.leaf_lams: dict[tuple[int, ...], list[int]] = {}
        self.generators: list[tuple[int, ...]] = []
        self.parent = list(range(n))

    def _find(self, v: int) -> int:
        p = self.parent
        while p[v] != v:
            p[v] = p[p[v]]
            v = p[v]
        return v

    def _union(self, a: int, b: int) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra != rb:
            if ra > rb:
                ra, rb = rb, ra
            self.parent[rb] = ra

    def _leaf(self, cells: list[list[int]]) -> None:
        n, adj = self.n, self.adj
        lam = [0] * n
        for pos, cell in enumerate(cells):
            lam[cell[0]] = pos
        new_adj = [0] * n
        for v in range(n):
            row = adj[v]
            acc = 0
            while row:
                low = row & -row
                acc |= 1 << lam[low.bit_length() - 1]
                row ^= low
            new_adj[lam[v]] = acc
        key = tuple(new_adj)
        prev = self.leaf_lams.get(key)
        if prev is None:
            self.leaf_lams[key] = lam
            if self.best_key is None or key > self.best_key:
                self.best_key = key
                self.best_lam = lam
        else:
            # two labelings that agree on the relabeled graph give an automorphism
            inv_prev = [0] * n
            for v in range(n):
                inv_prev[prev[v]] = v
            aut = tuple(inv_prev[lam[v]] for v in range(n))
            if any(aut[v] != v for v in range(n)):
                self.generators.append(aut)
                for v in range(n):
                    self._union(v, aut[v])

    def run(self, cells: list[list[int]]) -> None:
        cells = _reference_refine(self.n, self.adj, cells)
        target = None
        for idx, cell in enumerate(cells):
            if len(cell) > 1:
                target = idx
                break
        if target is None:
            self._leaf(cells)
            return
        branched: list[int] = []
        for v in sorted(cells[target]):
            if any(self._find(v) == self._find(w) for w in branched):
                continue
            branched.append(v)
            child = (
                cells[:target]
                + [[v], [w for w in cells[target] if w != v]]
                + cells[target + 1 :]
            )
            self.run(child)


class ReferenceCanon(NamedTuple):
    n: int
    canon_adj: tuple[int, ...]
    labeling: tuple[int, ...]       # vertex -> canonical position
    generators: tuple[tuple[int, ...], ...]
    orbit_of: tuple[int, ...]       # vertex -> smallest vertex in its orbit


def reference_canon(g: Graph) -> ReferenceCanon:
    """`mostar.canon` without splitter-only refinement or the twin rule:
    every round recounts every vertex against every cell, and the search
    branches on every vertex its orbit pruning leaves.  `canon`
    must return the same canon_adj and labeling.  It is also the suite's
    one automorphism-group oracle: the generators are the automorphisms
    its leaves show, and orbit_of their orbits, both checked against
    brute force in `test_canon.py`."""
    if g.n == 0:
        return ReferenceCanon(0, (), (), (), ())
    search = _ReferenceSearch(g.n, g.adj)
    search.run([list(range(g.n))])
    assert search.best_lam is not None
    orbit_of = tuple(search._find(v) for v in range(g.n))
    return ReferenceCanon(
        g.n,
        tuple(search.best_key or ()),
        tuple(search.best_lam),
        tuple(search.generators),
        orbit_of,
    )


def all_graphs(n: int):
    """Every labeled simple graph on n vertices."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for bits in range(1 << len(pairs)):
        yield Graph.from_edges(
            n, [e for k, e in enumerate(pairs) if bits >> k & 1]
        )


def reference_write_graph6(g: Graph) -> str:
    """graph6 line of g, one bit per vertex pair in the format's order."""
    n = g.n
    if n > 258047:
        raise GraphError("graph6 supports at most 258047 vertices here")
    if n <= 62:
        head = [n + 63]
    else:
        head = [126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    bits = []
    for j in range(n):
        col = g.adj[j]
        for i in range(j):
            bits.append(col >> i & 1)
    while len(bits) % 6:
        bits.append(0)
    body = []
    for k in range(0, len(bits), 6):
        b = 0
        for bit in bits[k : k + 6]:
            b = b << 1 | bit
        body.append(b + 63)
    return bytes(head + body).decode("ascii")


def reference_parse_graph6(text: str) -> Graph:
    """graph6 line to a graph, one vertex pair at a time, with the errors
    and offsets of `mostar.parse_graph6`."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6Error(f"non-ASCII character {s[exc.start]!r}", exc.start) from None
    if not data:
        raise Graph6Error("empty graph6 string", 0)
    for off, byte in enumerate(data):
        if not 63 <= byte <= 126:
            raise Graph6Error(f"byte {byte} outside graph6 range 63..126", off)
    pos = 0
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise Graph6Error("graphs of order > 258047 unsupported", 0)
        if len(data) < 4:
            raise Graph6Error("truncated extended order field", len(data))
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        pos = 4
    else:
        n = data[0] - 63
        pos = 1
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos < nbytes:
        raise Graph6Error(
            f"truncated adjacency data: need {nbytes} bytes, have {len(data) - pos}",
            len(data),
        )
    if len(data) - pos > nbytes:
        raise Graph6Error("trailing data after adjacency bits", pos + nbytes)
    adj = [0] * n
    k = 0
    for j in range(n):
        for i in range(j):
            byte = data[pos + k // 6] - 63
            if byte >> (5 - k % 6) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    return Graph(n, tuple(adj))


def tarjan_bridges(n: int, adj: tuple[int, ...]) -> set[tuple[int, int]]:
    """Every bridge of the graph, by one iterative low-link DFS."""
    disc = [-1] * n
    low = [0] * n
    out: set[tuple[int, int]] = set()
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        stack = [(root, -1)]
        iters = {}
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            v, parent = stack[-1]
            it = iters.get(v)
            if it is None:
                it = iters[v] = iter(
                    [w for w in range(n) if adj[v] >> w & 1]
                )
            advanced = False
            for w in it:
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, v))
                    advanced = True
                    break
                elif w != parent:
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            if not advanced:
                stack.pop()
                if stack:
                    pv = stack[-1][0]
                    if low[v] < low[pv]:
                        low[pv] = low[v]
                    if low[v] > disc[pv]:
                        out.add((pv, v) if pv < v else (v, pv))
    return out


def reference_accept_edge_child(n: int, child: tuple[int, ...], a: int, b: int):
    """The canonical-deletion rule applied literally: score every non-bridge
    edge, canonically label the child whenever (a, b) has the minimum
    score, and take orbits over all non-bridge edges.  Same contract as
    `_walk._accept_edge_child`."""
    from mostar.canon import pair_orbit_reps
    from _walk import _edge_inv

    deg = [row.bit_count() for row in child]
    bridges = tarjan_bridges(n, child)
    nonbridge = [
        (u, v) for u in range(n) for v in range(u + 1, n)
        if child[u] >> v & 1 and (u, v) not in bridges
    ]
    invs = {f: _edge_inv(child, deg, *f) for f in nonbridge}
    e = (a, b) if a < b else (b, a)
    min_inv = min(invs.values())
    if invs[e] != min_inv:
        return None
    cres = reference_canon(Graph(n, child))
    lam = cres.labeling
    best_pair = min(
        (f for f in nonbridge if invs[f] == min_inv),
        key=lambda f: tuple(sorted((lam[f[0]], lam[f[1]]))),
    )
    reps = pair_orbit_reps(n, cres.generators, nonbridge)
    return cres if reps[e] == reps[best_pair] else None


def _dict_adjacency(g: Graph) -> dict[int, set[int]]:
    adj = {v: set() for v in range(g.n)}
    for u, v in g.edges():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def brute_cut_vertices(g: Graph) -> list[int]:
    """Articulation points of a connected graph: delete v, then one dict BFS
    over the rest tells whether it fell apart."""
    adj = _dict_adjacency(g)
    out = []
    for v in range(g.n):
        rest = set(adj) - {v}
        if not rest:
            continue
        start = min(rest)
        seen = {start}
        q = deque([start])
        while q:
            x = q.popleft()
            for w in adj[x] - {v} - seen:
                seen.add(w)
                q.append(w)
        if seen != rest:
            out.append(v)
    return out


def brute_strip_pendants(g: Graph) -> tuple[list[int], dict[int, int]]:
    """Peel leaves one at a time; each peeled vertex hands the vertices it
    carried, plus itself, to its last neighbour.  Returns the surviving
    vertices in order and, per survivor, the vertex count (= edge count) of
    the trees that hung there."""
    adj = _dict_adjacency(g)
    carried = {v: 0 for v in adj}
    leaves = [v for v in adj if len(adj[v]) == 1]
    while leaves:
        v = leaves.pop()
        if len(adj[v]) != 1:
            continue
        (u,) = adj.pop(v)
        adj[u].discard(v)
        carried[u] += carried.pop(v) + 1
        if len(adj[u]) == 1:
            leaves.append(u)
    keep = sorted(adj)
    return keep, {v: carried[v] for v in keep}


@dataclass(frozen=True)
class BraceDecomposition:
    brace: Graph
    pendant_count: int
    # brace vertex -> number of pendant-tree edges hanging there
    attachment_profile: dict[int, int]
    # brace vertex -> original vertex label
    original_labels: tuple[int, ...]


def strip_pendants(g: Graph) -> BraceDecomposition:
    """Iteratively delete degree-1 vertices; record where the trees hung.

    Raises for trees (their brace would be empty).
    """
    if not is_connected(g):
        raise GraphError("brace extraction requires a connected graph")
    if cyclomatic_number(g) < 1:
        raise GraphError("a tree has no brace")
    adj = g.adj
    alive = (1 << g.n) - 1
    changed = True
    while changed:
        changed = False
        for v in range(g.n):
            if alive >> v & 1 and (adj[v] & alive).bit_count() == 1:
                alive &= ~(1 << v)
                changed = True
    keep = [v for v in range(g.n) if alive >> v & 1]
    brace = induced(g, keep)
    # each stripped component is a tree hanging at exactly one brace vertex;
    # its edge count equals its vertex count
    profile = {i: 0 for i in range(len(keep))}
    dead_adj = tuple(row & ~alive for row in adj)
    seen = alive
    for v in range(g.n):
        if seen >> v & 1:
            continue
        comp = reachable_mask(dead_adj, v)
        anchor = next(i for i, x in enumerate(keep) if adj[x] & comp)
        profile[anchor] += comp.bit_count()
        seen |= comp
    return BraceDecomposition(
        brace=brace,
        pendant_count=g.m - brace.m,
        attachment_profile=profile,
        original_labels=tuple(keep),
    )


def single_attach_decomposition(g: Graph) -> tuple[Graph, int] | None:
    """(brace, attach) when g is exactly a brace plus bare pendant edges at
    one brace vertex; None otherwise (including pendant-free graphs).  When
    every pendant tree hangs at one brace vertex, the trees are bare edges
    exactly when that vertex has `pendant_count` neighbours of degree 1.
    The oracle for the `Survey.maximizer_braces` the survey carries."""
    d = strip_pendants(g)
    hot = [v for v, k in d.attachment_profile.items() if k > 0]
    if len(hot) != 1:
        return None
    attach = hot[0]
    x = d.original_labels[attach]
    leaves = sum(1 for w in neighbors(g, x) if g.degree(w) == 1)
    return (d.brace, attach) if leaves == d.pendant_count else None


def attach_key(dec: tuple[Graph, int] | None) -> str | None:
    """The `families._normalize_candidate` key of a (brace, attach) pair,
    equal for two pairs exactly when an isomorphism of the braces maps one
    attachment vertex to the other; None for None."""
    from mostar.families import _normalize_candidate

    return None if dec is None else _normalize_candidate(*dec)[2]


@dataclass(frozen=True)
class Skeleton:
    branch_vertices: tuple[int, ...]
    # (a, b, length) with a <= b; loops appear as (v, v, cycle_length)
    paths: tuple[tuple[int, int, int], ...]

    @property
    def path_lengths(self) -> tuple[int, ...]:
        return tuple(sorted(p[2] for p in self.paths))


def skeleton(brace: Graph) -> Skeleton:
    """Suppress degree-2 vertices of a min-degree-2 graph.

    Walks every path between branch vertices (degree >= 3); a cycle
    attached at a single branch vertex becomes a loop.  A bare cycle (no
    branch vertices) reports no branch vertices and a single loop.
    """
    if any(brace.degree(v) < 2 for v in range(brace.n)):
        raise GraphError("skeleton requires minimum degree 2")
    branch = [v for v in range(brace.n) if brace.degree(v) >= 3]
    if not branch:
        if not is_connected(brace):
            raise GraphError("skeleton requires a connected graph")
        return Skeleton((), ((0, 0, brace.m),) if brace.n else ())
    paths = []
    # walk from each branch vertex along each incident edge; dedup by the
    # full walk's edge set so parallel paths and loops both survive
    seen_walks = set()
    for s in branch:
        for t0 in neighbors(brace, s):
            prev, cur = s, t0
            walk = [(min(prev, cur), max(prev, cur))]
            while brace.degree(cur) == 2:
                nxts = [w for w in neighbors(brace, cur) if w != prev]
                prev, cur = cur, nxts[0]
                walk.append((min(prev, cur), max(prev, cur)))
            walk_edges = frozenset(walk)
            if walk_edges in seen_walks:
                continue
            seen_walks.add(walk_edges)
            a, b = (s, cur) if s <= cur else (cur, s)
            paths.append((a, b, len(walk)))
    return Skeleton(tuple(branch), tuple(sorted(paths)))


def _cut_vertices(g: Graph) -> list[int]:
    """Vertices whose removal disconnects their neighbours from each other."""
    out = []
    for v in range(g.n):
        nbrs = g.adj[v]
        if nbrs & (nbrs - 1):  # two or more neighbours
            bit = 1 << v
            rest = tuple(row & ~bit for row in g.adj)
            if nbrs & ~reachable_mask(rest, (nbrs & -nbrs).bit_length() - 1):
                out.append(v)
    return out


def classify_graph(g: Graph) -> BraceClass:
    """The class of a connected graph's tricyclic structure, from the graph
    alone: strip its pendants, look for a cut vertex, walk the skeleton and
    count its parallel paths.  The oracle for the classes that
    `braces.kernel_braces` reads off each kernel."""
    if not is_connected(g):
        raise GraphError("classification requires a connected graph")
    if cyclomatic_number(g) != 3:
        return BraceClass(NOT_TRICYCLIC)
    brace = strip_pendants(g).brace
    if _cut_vertices(brace):
        return BraceClass(COMPOSITE)
    sk = skeleton(brace)
    params = sk.path_lengths
    b = len(sk.branch_vertices)
    if b == 2:
        return BraceClass(FOUR_THETA, params)
    if b == 3:
        return BraceClass(THREE_HUB, params)
    if b == 4:
        # distinguish the two 3-regular shapes by parallel-path pattern:
        # K4 has six distinct vertex pairs, the ring shape has two doubled
        multiplicity = {}
        for a, c, _ in sk.paths:
            multiplicity[(a, c)] = multiplicity.get((a, c), 0) + 1
        mults = sorted(multiplicity.values())
        if mults == [1, 1, 1, 1, 1, 1]:
            return BraceClass(K4_SUBDIVISION, params)
        if mults == [1, 1, 2, 2]:
            return BraceClass(DIGON_RING, params)
    raise GraphError("unrecognized 2-connected tricyclic skeleton")


def hang_random_trees(rng: random.Random, g: Graph, count: int) -> Graph:
    """Attach `count` new vertices one by one, each to a uniformly random
    earlier vertex, so random trees hang off random vertices of g."""
    for _ in range(count):
        g = with_pendants(g, {rng.randrange(g.n): 1})
    return g


@dataclass(frozen=True)
class ShiftSpec:
    source: int
    target: int
    count: int


def shift_pendants(g: Graph, spec: ShiftSpec) -> Graph:
    """Move `count` pendant edges from source to target.

    The moved vertices are the smallest-labeled pendant neighbours of the
    source; order, size and connectivity are preserved.
    """
    if spec.source == spec.target:
        raise GraphError("shift source and target must differ")
    if not (0 <= spec.source < g.n and 0 <= spec.target < g.n):
        raise GraphError("shift endpoints out of range")
    if spec.count == 0:
        return g
    pendants = [
        w for w in neighbors(g, spec.source)
        if g.degree(w) == 1 and w != spec.target
    ]
    if len(pendants) < spec.count:
        raise GraphError(
            f"vertex {spec.source} has {len(pendants)} movable pendant "
            f"neighbours, need {spec.count}"
        )
    adj = g.adj
    for w in pendants[: spec.count]:
        adj = toggle_edge(toggle_edge(adj, spec.source, w), spec.target, w)
    # re-hanging a leaf on another vertex keeps a connected graph connected
    return Graph(g.n, adj)


def reference_measured_delta(brace: Graph, roles, rule, params) -> int:
    """A shift rule's delta by build, shift and difference: role v_i gets
    a_i pendants, one role after another in role order, `shift_pendants`
    moves them as the rule says, and the indices are differenced.  Same
    contract as `shifts.measured_delta`."""
    from mostar import edge_mostar

    g = brace
    for i, v in enumerate(roles, start=1):
        g = with_pendants(g, {v: params.get(f"a{i}", 0)})
    shifted = g
    for src, dst, pname in rule.moves:
        k = params.get(pname, 0)
        if k:
            shifted = shift_pendants(shifted, ShiftSpec(roles[src - 1], roles[dst - 1], k))
    return edge_mostar(shifted) - edge_mostar(g)


def pendant_row_sum(model, counts: dict[int, int]) -> int:
    """The row-sum oracle: the index of a brace plus counts[w] pendant
    edges at each vertex w, off the brace's `pendant_model` `model`, as
    k (m - 1) + sum over e of |c_e + sum_w a_w s_e(w)| (the `indices`
    module docstring), k the pendant edges and m all edges."""
    pairs, ce, rows = model
    k = sum(counts.values())
    sums = ce
    for w, a in counts.items():
        sums = [x + a * s for x, s in zip(sums, rows[w])]
    return k * (len(pairs) + k - 1) + sum(map(abs, sums))


def pendant_row_mismatches(brace: Graph, size: int, top: int) -> list:
    """Every way to hang 0..top pendant edges at each of `size` vertices
    of `brace`: the (counts, edge_mostar, `pendant_row_sum`) triples at
    which the two differ."""
    from mostar import edge_mostar
    from mostar.indices import pendant_model

    model = pendant_model(brace.adj)
    bad = []
    for at in combinations(range(brace.n), size):
        for a in product(range(top + 1), repeat=size):
            counts = dict(zip(at, a))
            got, want = edge_mostar(with_pendants(brace, counts)), pendant_row_sum(model, counts)
            if got != want:
                bad.append((counts, got, want))
    return bad


def orbit_tails(g: Graph, auts=None) -> tuple:
    """The `model_tails` records of g as (poly, holds_from) at the smallest
    vertex of each orbit and None at the others, the orbits those of the
    permutations `auts` or, when it is None, `reference_canon(g).orbit_of`:
    with a kernel brace's group, the tails `families._brace_tails` reads."""
    from mostar.indices import model_tails, pendant_model

    # orbit_of names each orbit by its smallest vertex
    first = set(reference_canon(g).orbit_of) if auts is None else {
        min(p[v] for p in auts) for v in range(g.n)}
    return tuple([t[:2] if v in first else None
                  for v, t in enumerate(model_tails(pendant_model(g.adj)))])


def orbit_walk_role_assignments(brace: Graph, roles: int, role_degrees):
    """Injective role -> vertex maps, one per automorphism class, by
    walking each map's whole orbit over `reference_canon`'s generators and
    keeping the first map met of every orbit, in `itertools.permutations`
    order.  Same contract as `shifts._role_assignments`."""
    gens = reference_canon(brace).generators
    seen = set()
    for perm in itertools.permutations(range(brace.n), roles):
        if role_degrees is not None and any(
            brace.degree(v) != d for v, d in zip(perm, role_degrees)
        ):
            continue
        orbit = {perm}
        frontier = [perm]
        while frontier:
            cur = frontier.pop()
            for gen in gens:
                img = tuple(gen[v] for v in cur)
                if img not in orbit:
                    orbit.add(img)
                    frontier.append(img)
        rep = min(orbit)
        if rep in seen:
            continue
        seen.add(rep)
        yield perm


def check_model_scores(c: int, m: int) -> dict[int, int]:
    """Every class the pick listing (`_hang_trees`) grows for cyclomatic
    number c at each size up to m, scored off the brace's `pendant_model`
    with no graph built (`_values`), equals `edge_mostar` of the graph
    `_grow` builds, on every pick and not only on maximizers; and the
    survey's pass over each brace, `enumeration._survey_brace` with the
    task of every size from the brace's to m, gives for each task exactly
    its class count, its best value and the compositions whose all-star
    graphs (`enumeration._grow`) are its best picks, each with its brace's
    class and `single_attach_decomposition`.  Returns the
    number of classes checked per size.  Run on tricyclic m = 13 and
    bicyclic m = 12 by CI:

        PYTHONPATH=src:tests python -c "import _helpers; print(_helpers.check_model_scores(3, 13))"
    """
    from mostar import edge_mostar, enumeration
    from mostar.braces import kernel_braces
    from mostar.indices import pendant_model

    trees = _rooted_trees(m)
    checked: dict[int, int] = {}
    for b, found in kernel_braces(c, range(m + 1)).items():
        tasks = [enumeration.EnumerationTask(size - c + 1, size) for size in range(b, m + 1)]
        scores = {t: _tree_scores(trees[:t.m - b + 1], t.m) for t in tasks}
        for brace, auts, cls in found:
            model = pendant_model(brace.adj)
            got = enumeration._survey_brace(brace.adj, auts, [(t, t.m - b) for t in tasks])
            assert len(got) == len(tasks), brace.edges()
            for task, (count, top, ties) in zip(tasks, got):
                scored = []
                for comp, support, picks in _hang_trees(brace.n, auts, trees, task.m - b):
                    values = _values(model, scores[task], comp, support, picks)
                    for pick, value in zip(picks, values):
                        adj = _grow(brace.adj, trees, comp, support, pick)
                        assert value == edge_mostar(Graph(len(adj), adj)), \
                            (brace.edges(), comp, pick)
                        scored.append((value, adj))
                best = max(value for value, _ in scored)
                assert count == len(scored) and top == best, (brace.edges(), task)
                # a grown row keeps its brace's labels, so the oracle peels
                # off exactly the brace the pass carries
                assert sorted(enumeration._grow(brace.adj, cls, comp) for comp in ties) == sorted(
                    (adj, cls, single_attach_decomposition(Graph(len(adj), adj)))
                    for value, adj in scored if value == best), (brace.edges(), task)
                checked[task.m] = checked.get(task.m, 0) + len(scored)
    return checked


def maximize(task, workers: int = 1):
    """The task's maximum edge Mostar index and all argmax canonical
    forms, as `survey` gives them for the task alone.  Empty classes yield
    graphs_visited=0 explicitly."""
    from mostar.enumeration import survey

    return survey([task], workers=workers)[task].result


@dataclass(frozen=True)
class FamilyCheckRow:
    m: int
    computed: int
    expected: int

    @property
    def ok(self) -> bool:
        return self.computed == self.expected


def verify_family(fid: str, m_range, registry=None) -> list[FamilyCheckRow]:
    """Compare edge_mostar(spec.build(m)) against the closed form, exactly."""
    from mostar import edge_mostar
    from mostar.families import builtin_registry
    from mostar.indices import poly_eval

    spec = (registry if registry is not None else builtin_registry())[fid]
    if spec.poly is None:
        raise ValueError(f"{fid} carries no closed form")
    return [FamilyCheckRow(m, edge_mostar(spec.build(m)), poly_eval(spec.poly, m))
            for m in m_range]
