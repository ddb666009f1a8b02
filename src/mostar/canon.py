"""Exact canonical labeling and automorphisms of graphs of any order.

The enumerator's dedup rests on this exact individualize-refine search (no
hashing): equitable refinement, branching on the first non-singleton cell,
automorphism pruning.  The labeling is the first leaf, in search order, of
largest relabeled adjacency tuple: equal forms mean isomorphic graphs.

Refinement orders each cell's groups by ascending neighbour counts, which
never depend on labels, and counts only into the pieces the last round split
off, less each split cell's last piece: within a cell the counts into each
cell of the last partition agree (that round grouped by them), which fixes
the dropped counts, and equal components change neither the grouping nor
the order.  A cell with no neighbour in a splitter cannot split.

Twins are branched on once per node.  Two vertices are twins when their
open rows are equal (false twins, never adjacent) or their closed rows
`row | 1 << v` are (true twins, always adjacent).  Each kind is an
equivalence, and no vertex has twins of both kinds: with u, x false twins
and u, y true twins, y is adjacent to u, so to x, so x is in the closed row
of y, which is u's, and x would be adjacent to u.  The search skips a
vertex of the target cell when a twin of it was already branched on at
that node.  The transposition of the two is an automorphism that fixes
every other vertex, so it fixes the node's individualised vertices
(singletons, while the two are in a larger cell), and refinement, which
never reads labels, commutes with it.  So it maps the skipped child's subtree onto the one
already searched, node to node and leaf to leaf, with equal leaf keys: the
skip drops no key, and the subtree searched comes first, so the first
largest leaf is kept.  Every twin transposition joins the generators and
orbit_of after the search, for the automorphisms the skipped subtrees
would have shown.

Orbit pruning uses the found group's orbits, not the node stabilizer's
(McKay & Piperno, "Practical graph isomorphism, II", 2014).  That it never
drops the first largest leaf is unproved; tests check it against brute
force for n <= 6 and against the search without splitter-only refinement
or the twin rule.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import Graph, _bits, write_graph6


class CanonResult(NamedTuple):
    n: int
    canon_adj: tuple[int, ...]
    labeling: tuple[int, ...]       # vertex -> canonical position
    generators: tuple[tuple[int, ...], ...]
    orbit_of: tuple[int, ...]       # vertex -> smallest vertex in its orbit


def _refine(adj: tuple[int, ...], cells: list[int], splitters: list[int]) -> list[int]:
    """Refine an ordered partition of vertex bitmasks to equitability, with
    bit-sliced counts (slice i: the vertices whose count has bit i set)."""
    while splitters:
        slices: list[int] = []
        for s in splitters:
            if not s & (s - 1):
                slices.append(adj[s.bit_length() - 1])
                continue
            bits = [0] * s.bit_count().bit_length()
            while s:
                low = s & -s
                s ^= low
                x, i = adj[low.bit_length() - 1], 0
                while x:
                    carry = bits[i] & x
                    bits[i] ^= x
                    x, i = carry, i + 1
            slices += reversed(bits)   # most significant first: ascending counts
        touched = 0
        for x in slices:
            touched |= x
        out: list[int] = []
        fresh: list[int] = []
        for cell in cells:
            pieces = None
            if cell & touched and cell & (cell - 1):
                for x in slices:
                    cut = cell & x
                    if not cut or cut == cell:
                        continue
                    if pieces is None:
                        pieces = [cell ^ cut, cut]
                    else:
                        pieces = [q for p in pieces for q in (p & ~x, p & x) if q]
            if pieces is None:
                out.append(cell)
            else:
                out += pieces
                fresh += pieces[:-1]
        cells, splitters = out, fresh
    return cells


def _find(parent: list[int], v: int) -> int:
    while parent[v] != v:
        parent[v] = v = parent[parent[v]]
    return v


def _union(parent: list[int], a: int, b: int) -> None:
    ra, rb = _find(parent, a), _find(parent, b)
    if ra > rb:
        ra, rb = rb, ra
    parent[rb] = ra


def _twin_classes(adj: tuple[int, ...]) -> list[int]:
    """Vertex -> bitmask of its twin class, 0 for a vertex with no twin: the
    vertices with its open row (false twins) or its closed row (true twins)."""
    classes: dict[tuple[int, int], int] = {}
    for v, row in enumerate(adj):
        for key in ((0, row), (1, row | 1 << v)):
            classes[key] = classes.get(key, 0) | 1 << v
    twins = [0] * len(adj)
    for cls in classes.values():
        if cls & (cls - 1):
            for v in _bits(cls):
                twins[v] = cls
    return twins


class _Search:
    def __init__(self, n: int, adj: tuple[int, ...], twins: list[int]):
        self.n = n
        self.adj = adj
        self.twins = twins   # vertex -> bitmask of its twin class
        self.best_key: tuple[int, ...] | None = None
        self.best_lam: list[int] | None = None
        self.leaf_perms: dict[tuple[int, ...], list[int]] = {}
        self.generators: list[tuple[int, ...]] = []
        self.parent = list(range(n))

    def _leaf(self, cells: list[int]) -> None:
        adj = self.adj
        perm = [cell.bit_length() - 1 for cell in cells]   # position -> vertex
        lam = sorted(range(self.n), key=perm.__getitem__)   # vertex -> position
        rows = []
        for v in perm:
            row, acc = adj[v], 0
            while row:
                low = row & -row
                acc |= 1 << lam[low.bit_length() - 1]
                row ^= low
            rows.append(acc)
        key = tuple(rows)
        prev = self.leaf_perms.get(key)
        if prev is None:
            self.leaf_perms[key] = perm
            if self.best_key is None or key > self.best_key:
                self.best_key = key
                self.best_lam = lam
            return
        # two labelings that agree on the relabeled graph give an automorphism
        aut = tuple(map(prev.__getitem__, lam))
        moved = [v for v in range(self.n) if aut[v] != v]
        if moved:
            self.generators.append(aut)
            for v in moved:
                _union(self.parent, v, aut[v])

    def run(self, cells: list[int], splitters: list[int]) -> None:
        cells = _refine(self.adj, cells, splitters)
        for target, cell in enumerate(cells):
            if cell & (cell - 1):
                break
        else:
            self._leaf(cells)
            return
        parent, twins = self.parent, self.twins
        done = 0   # the vertices branched on at this node
        rest = cell
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            if twins[v] & done or any(_find(parent, w) == _find(parent, v) for w in _bits(done)):
                continue
            done |= low
            self.run(cells[:target] + [low, cell ^ low] + cells[target + 1 :], [low])


def canon(g: Graph) -> CanonResult:
    """Canonical labeling, automorphism generators, and vertex orbits."""
    if g.n == 0:
        return CanonResult(0, (), (), (), ())
    by_degree: dict[int, int] = {}   # the first round splits by degree
    for v, row in enumerate(g.adj):
        d = row.bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    cells = [by_degree[d] for d in sorted(by_degree)]
    twins = _twin_classes(g.adj)
    search = _Search(g.n, g.adj, twins)
    search.run(cells, cells[:-1])
    for v, cls in enumerate(twins):
        w = (cls & -cls).bit_length() - 1   # the first of v's class, -1 for none
        if 0 <= w < v:
            swap = list(range(g.n))
            swap[v], swap[w] = w, v
            search.generators.append(tuple(swap))
            _union(search.parent, w, v)
    orbit_of = tuple([_find(search.parent, v) for v in range(g.n)])
    return CanonResult(g.n, search.best_key, tuple(search.best_lam),
                       tuple(search.generators), orbit_of)


def canonical_form(g: Graph) -> str:
    """Total-order key: graph6 of the canonically relabeled graph.

    Equal strings exactly when the graphs are isomorphic.
    """
    res = canon(g)
    return write_graph6(Graph(res.n, res.canon_adj))


def pair_orbit_reps(
    n: int,
    generators: tuple[tuple[int, ...], ...],
    pairs: list[tuple[int, int]],
) -> dict[tuple[int, int], tuple[int, int]]:
    """Map each pair (u, v), u < v, to the smallest pair in its orbit.

    Orbits are taken under the group generated by `generators`, acting on
    the given pair set (the set must be closed under the action, which holds
    for edge sets and non-edge sets): the components of the graph joining
    each pair to its images, found by union-find over the codes u * n + v,
    which order as the pairs do, with the smaller code as the root.
    """
    if not generators:
        return {p: p for p in pairs}
    parent = list(range(n * n))
    for gen in generators:
        for u, v in pairs:
            x, y = gen[u], gen[v]
            _union(parent, u * n + v, x * n + y if x < y else y * n + x)
    return {(u, v): divmod(_find(parent, u * n + v), n) for u, v in pairs}
