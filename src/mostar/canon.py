"""Exact canonical labeling and automorphisms for graphs with n <= 16.

The enumerator's dedup guarantees rest on this module, so it uses an exact
individualize-refine search (no hashing): equitable partition refinement,
branching on the first non-singleton cell, and orbit pruning driven by the
automorphisms discovered at leaf collisions.  The canonical labeling is the
leaf maximizing the relabeled adjacency tuple; two graphs produce equal
canonical forms exactly when they are isomorphic.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import Graph, write_graph6

CANON_MAX_N = 16


class CanonCapacityError(ValueError):
    """Graph order exceeds the canonical-labeling bound."""


class CanonResult(NamedTuple):
    n: int
    canon_adj: tuple[int, ...]
    labeling: tuple[int, ...]       # vertex -> canonical position
    generators: tuple[tuple[int, ...], ...]
    orbit_of: tuple[int, ...]       # vertex -> smallest vertex in its orbit

    @property
    def key(self) -> tuple:
        return (self.n, self.canon_adj)


def _refine(n: int, adj: tuple[int, ...], cells: list[list[int]]) -> list[list[int]]:
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


class _Search:
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
        cells = _refine(self.n, self.adj, cells)
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


def canon(g: Graph) -> CanonResult:
    """Canonical labeling, automorphism generators, and vertex orbits."""
    if g.n > CANON_MAX_N:
        raise CanonCapacityError(
            f"canonical labeling supports n <= {CANON_MAX_N}, got {g.n}"
        )
    if g.n == 0:
        return CanonResult(0, (), (), (), ())
    search = _Search(g.n, g.adj)
    search.run([list(range(g.n))])
    assert search.best_lam is not None
    orbit_of = tuple(search._find(v) for v in range(g.n))
    return CanonResult(
        g.n,
        tuple(search.best_key or ()),
        tuple(search.best_lam),
        tuple(search.generators),
        orbit_of,
    )


def canonical_form(g: Graph) -> str:
    """Total-order key: graph6 of the canonically relabeled graph.

    Equal strings exactly when the graphs are isomorphic (for n <= 16).
    """
    res = canon(g)
    return write_graph6(Graph(res.n, res.canon_adj))


def isomorphic(g1: Graph, g2: Graph) -> bool:
    if g1.n != g2.n or g1.m != g2.m:
        return False
    if sorted(r.bit_count() for r in g1.adj) != sorted(r.bit_count() for r in g2.adj):
        return False
    return canon(g1).key == canon(g2).key


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

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for gen in generators:
        for u, v in pairs:
            x, y = gen[u], gen[v]
            ra, rb = find(u * n + v), find(x * n + y if x < y else y * n + x)
            if ra < rb:
                parent[rb] = ra
            elif rb < ra:
                parent[ra] = rb
    return {(u, v): divmod(find(u * n + v), n) for u, v in pairs}
