"""Edge Mostar index, per-edge summaries and exact pendant tails.

For an edge e = uv, every other edge f is classified by comparing its
distance to u against its distance to v (edge-to-vertex distance is the
minimum over the edge's endpoints).  Ties count toward neither side; e
itself is excluded since it sits at distance 0 from both endpoints.  The
per-edge contribution is the absolute difference of the two counts, and
the edge Mostar index is the sum of contributions over all edges.

The indices are evaluated through transmissions, not distance tables.
Write d(s, f) for the distance from vertex s to edge f and T(s) for the
edge transmission, the sum of d(s, f) over all edges f.  Then for every
edge e = uv

    m_u(e) - m_v(e) = T(v) - T(u).

Proof: |d(u, x) - d(v, x)| <= 1 for every vertex x because u and v are
adjacent, and taking the minimum over f's endpoints keeps that, so every
f lies in exactly one of d(v, f) = d(u, f) + 1 (counted by m_u),
d(u, f) = d(v, f) + 1 (counted by m_v) or d(u, f) = d(v, f); summing
d(v, f) - d(u, f) over all f gives m_u - m_v.

T comes from edge balls, bitmasks over edge indices: EB_k(s) holds the
edges with an endpoint within distance k of s, that is d(s, f) <= k.
EB_0(s) is the set of edges incident to s, and

    EB_k(s) = union of EB_{k-1}(t) over t in N[s],

N[s] being s and its neighbours, so every source advances one level with
one big-integer OR per adjacency.  T(s) is the sum over k >= 0 of
m - |EB_k(s)|.  An edge f is in EB_k(u) but not in EB_k(v) exactly when
k = d(u, f) < d(v, f), so m_u counts those set differences over k (`_near`).
In a connected graph a ball short of full grows at the next level, so the
recurrence is also the connectivity check, with no separate search.

Leaves need no ball.  Let l be a leaf with neighbour w, so N[l] = {l, w}.
Then EB_0(l) = {lw} is in EB_0(w), and EB_k(l) = EB_{k-1}(l) | EB_{k-1}(w)
is in EB_k(w) by induction, as EB_{k-1}(w) is in EB_k(w).  So dropping l
from N[w] leaves EB_k(w) unchanged, and no other vertex has l in its
N[s]: the recurrence over the vertices that are not leaves, each with its
own seed EB_0, gives those vertices the same balls.  Every path from l to
an edge f != lw passes through w, so d(l, f) = d(w, f) + 1 for those m - 1
edges, and d(l, lw) = d(w, lw) = 0; hence T(l) = T(w) + m - 1, and each
pendant edge lw scores |T(l) - T(w)| = m - 1.  The connectivity rule for
leaves: a leaf whose neighbour is a leaf makes a K2 component, so the
graph is connected only if it is that K2 (n = 2).  Otherwise every leaf
hangs on a vertex that is not a leaf, no path between two such vertices
passes through a leaf, and the graph is connected exactly when the
recurrence over those vertices (isolated ones included, which have degree
0) reaches the union of their seeds, which is then every edge.

Nor need pendant edges be listed.  Edge indices are only names: `_balls`
builds every ball from the seeds by unions alone, so renaming the edges
by a bijection renames the bits of every ball and keeps its size, and T
depends only on the edge sets.  Among the seeds of the vertices that are
not leaves, a pendant edge lw is in EB_0(w) alone, as l has no seed, so
any bit that no other edge uses can carry it.  `edge_mostar` numbers the
edges between those vertices first and gives each such vertex w its
p_w = |N(w) & leaves| pendant edges as the next p_w bits, one run
((1 << p_w) - 1) << offset in w's seed.  The index is the sum of
|T(u) - T(v)| over the edges between vertices that are not leaves plus
(m - 1) per pendant edge, with m counting both kinds.  A leaf hangs on a
leaf exactly when the union of the leaves' rows meets the set of leaves.

A brace with a rooted tree hung at each vertex w, a_w tree edges at w and
m edges in all, has index

    sum over brace edges e = uv of |c_e + sum_w a_w s_e(w)|
    + sum over tree edges f of |m - 1 - 2 s_f|,

with c_e = m_u - m_v in the brace alone, s_e(w) = +1, -1 or 0 as
d(u, w) <, > or = d(v, w), and s_f edges below f: trees change no distance
inside the brace, a tree edge at w sits on w's side of e, and a tree edge
is a bridge with s_f edges on its far side and the other m - 1 - s_f on
its near side.  `pendant_model` gives c_e and s_e(w).  So replacing each
tree by as many pendant edges at its root keeps the brace term and turns
every |m - 1 - 2 s_f| into m - 1, a strict rise exactly when s_f >= 1, as
s_f < m - 1 (the brace's edges are on f's near side): trees to stars never
lower the index, and raise it exactly when some tree vertex is not a leaf.

The deficit identity.  Every edge f != e = uv is nearer u, nearer v or
equidistant, so m_u + m_v + eq_e = m - 1, eq_e counting the equidistant
ones, and |m_u - m_v| = m - 1 - eq_e - 2 min(m_u, m_v).  Summed over the
m edges,

    Mo_e(G) = m (m - 1) - sum over e of (eq_e + 2 min(m_u, m_v)),

every term of the sum >= 0.  The brace bound: every brace vertex has at
least two brace neighbours, so for a brace edge uv, u has a brace edge
ux with x != v, d(u, ux) = 0 and d(v, ux) = 1 (v is adjacent to u and is
not x), so ux is nearer u; likewise at v.  Hence min(m_u, m_v) >= 1 on
every brace edge, whatever trees hang on the brace, and a graph whose
brace has b edges has Mo_e(G) <= m (m - 1) - 2b.

`edge_report` keeps the definition itself, one distance table and a pass
over the edges, as the per-edge reference.

All arithmetic is exact integer arithmetic; Python integers make the
family-polynomial checks at large sizes safe without any width concerns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from operator import add, and_, mul
from typing import Iterator, NamedTuple, Sequence

from .graphs import (
    Graph, GraphError, all_pairs_distances, edge_pairs, is_connected,
    write_graph6,
)

_DISCONNECTED = "operation requires a connected graph"


class EdgeReport(NamedTuple):
    """Orientation counts for a single edge e = (u, v), u < v."""

    u: int
    v: int
    m_u: int          # edges strictly closer to u
    m_v: int          # edges strictly closer to v
    equidistant: int  # remaining edges (e itself excluded)

    @property
    def psi(self) -> int:
        return abs(self.m_u - self.m_v)

    def to_dict(self) -> dict:
        return {
            "u": self.u,
            "v": self.v,
            "mu": self.m_u,
            "mv": self.m_v,
            "eq": self.equidistant,
            "psi": self.psi,
        }


@dataclass(frozen=True)
class MostarSummary:
    graph6: str
    edge_mostar: int
    per_edge: tuple[EdgeReport, ...] = field(repr=False)

    def to_dict(self) -> dict:
        return {
            "graph6": self.graph6,
            "edge_mostar": self.edge_mostar,
            "edges": [r.to_dict() for r in self.per_edge],
        }

    def to_json(self) -> str:
        """`json.dumps(self.to_dict(), sort_keys=True)`, written directly;
        the graph6 string goes through `json.dumps`, as `\\` is a
        graph6 character."""
        edges = ", ".join([
            f'{{"eq": {eq}, "mu": {mu}, "mv": {mv}, "psi": {abs(mu - mv)}, "u": {u}, "v": {v}}}'
            for u, v, mu, mv, eq in self.per_edge
        ])
        return (f'{{"edge_mostar": {self.edge_mostar}, "edges": [{edges}], '
                f'"graph6": {json.dumps(self.graph6)}}}')


def edge_report(g: Graph, e: tuple[int, int], dm: list[list] | None = None) -> EdgeReport:
    """Classify all edges f != e by which endpoint of e they sit closer to;
    e is any pair of adjacent vertices, reported as (u, v) with u < v."""
    u, v = sorted(e)
    if not g.has_edge(u, v):
        raise GraphError(f"edge ({u}, {v}) not in graph")
    if not is_connected(g):
        raise GraphError(_DISCONNECTED)
    if dm is None:
        dm = all_pairs_distances(g)
    du = dm[u]
    dv = dm[v]
    m_u = m_v = eq = 0
    for a, b in g.edges():
        if a == u and b == v:
            continue
        fu = du[a] if du[a] < du[b] else du[b]
        fv = dv[a] if dv[a] < dv[b] else dv[b]
        if fu < fv:
            m_u += 1
        elif fv < fu:
            m_v += 1
        else:
            eq += 1
    return EdgeReport(u, v, m_u, m_v, eq)


def _nbrs(adj: Sequence[int]) -> list[list[int]]:
    """Per adjacency row, its neighbours: the positions of its set bits."""
    out = []
    for row in adj:
        nbrs = []
        while row:
            low = row & -row
            nbrs.append(low.bit_length() - 1)
            row ^= low
        out.append(nbrs)
    return out


def _balls(nbrs: list[list[int]], seeds: list[int]) -> Iterator[list[int]]:
    """Yield B_0, B_1, ... for every source at once, where B_0[s] = seeds[s]
    and B_k[s] is the union of B_{k-1}[t] over s and its neighbours t in
    nbrs[s]; stop after the first level at which every ball holds the
    union of all seeds, and raise when no ball grows while one is short of
    it (see the module docstring).  Edge seeds on an edgeless graph start
    full, so that case is tested on its own."""
    n = len(nbrs)
    full = 0
    for b in seeds:
        full |= b
    if not full and n > 1:
        raise GraphError(_DISCONNECTED)
    balls = seeds
    while True:
        yield balls
        nxt = []
        for s, b in enumerate(balls):
            if b != full:
                for t in nbrs[s]:
                    b |= balls[t]
            nxt.append(b)
        if nxt == balls:  # no ball grew
            if balls.count(full) != n:
                raise GraphError(_DISCONNECTED)
            return
        balls = nxt


def _edge_seeds(adj: tuple[int, ...]) -> tuple[list[tuple[int, int]], list[int]]:
    """`edge_pairs(adj)` and EB_0: per vertex, the bitmask of the indices
    of its edges."""
    pairs = edge_pairs(adj)
    inc = [0] * len(adj)
    for i, (u, v) in enumerate(pairs):
        inc[u] |= 1 << i
        inc[v] |= 1 << i
    return pairs, inc


def edge_mostar(g: Graph) -> int:
    """Sum of |m_u - m_v| over all edges, as |T(u) - T(v)|, T(s) being the
    sum over k of m - |EB_k(s)|.  No pendant edge is listed: only the
    vertices that are not leaves run the recurrence, the edges between
    them numbered first and each vertex's p pendant edges one run of p
    bits in its seed, and each pendant edge scores m - 1.  A leaf whose
    neighbour is a leaf is a K2 component: GraphError unless the graph is
    that K2.  The recurrence checks that the rest is connected (module
    docstring, for the proofs).  Summing |EB_k(s)| over the K levels
    gives m K - T(s), whose differences are those of T."""
    adj = g.adj
    core, leaves, hung = [], 0, 0
    for s, row in enumerate(adj):
        if row and not row & row - 1:  # one bit: a leaf
            leaves |= 1 << s
            hung |= row
        else:
            core.append(s)
    if hung & leaves:  # a leaf on a leaf: a K2 component
        if g.n == 2:
            return 0
        raise GraphError(_DISCONNECTED)
    pos = [0] * g.n
    for i, s in enumerate(core):
        pos[s] = i
    nbrs = [[pos[t] for t in out] for out in _nbrs([adj[s] & ~leaves for s in core])]
    seeds = [0] * len(core)
    pairs = []
    for u, out in enumerate(nbrs):
        for v in out:
            if v > u:
                seeds[u] |= 1 << len(pairs)
                seeds[v] |= 1 << len(pairs)
                pairs.append((u, v))
    m = len(pairs)
    for u, s in enumerate(core):
        p = (adj[s] & leaves).bit_count()
        seeds[u] |= ((1 << p) - 1) << m
        m += p
    t = [0] * len(core)
    for balls in _balls(nbrs, seeds):
        t = list(map(add, t, map(int.bit_count, balls)))
    return sum([abs(t[u] - t[v]) for u, v in pairs]) + (m - len(pairs)) * (m - 1)


def _near(
    adj: tuple[int, ...], pairs: list[tuple[int, int]], seeds: list[int],
) -> list[tuple[int, int]]:
    """Per edge uv of `pairs`, the bits of the balls B_k grown from `seeds`
    (`_balls`: edges from EB_0, and vertices too when `pendant_model` sets
    w at bit m + w) nearer u and those nearer v; GraphError when
    disconnected.  A bit x is in B_k(u) but not B_k(v) exactly when
    k = d(u, x) < d(v, x), so those sets are disjoint over k and their
    union, all that is nearer u, is the integer sum over k of
    B_k(u) - (B_k(u) & B_k(v))."""
    cols = list(zip(*_balls(_nbrs(adj), seeds)))  # per vertex, its ball at each level
    total = list(map(sum, cols))
    both = [sum(map(and_, cols[u], cols[v])) for u, v in pairs]
    return [(total[u] - x, total[v] - x) for (u, v), x in zip(pairs, both)]


def pendant_model(
    adj: tuple[int, ...],
) -> tuple[list[tuple[int, int]], list[int], list[tuple[int, ...]]]:
    """`edge_pairs(adj)`, c_e = m_u - m_v for every edge and, per vertex w,
    the row of s_e(w) (module docstring), read off `_near` with edge and
    vertex seeds; GraphError when disconnected."""
    pairs, inc = _edge_seeds(adj)
    m = len(pairs)
    near = _near(adj, pairs, [b | 1 << m + s for s, b in enumerate(inc)])
    edges = (1 << m) - 1
    rows = [tuple([(x >> w & 1) - (y >> w & 1) for x, y in near])
            for w in range(m, m + len(adj))]
    return pairs, [(x & edges).bit_count() - (y & edges).bit_count() for x, y in near], rows


def poly_eval(poly: tuple[int, int, int], m: int) -> int:
    return (poly[0] * m + poly[1]) * m + poly[2]


def model_tails(
    model: tuple[list[tuple[int, int]], list[int], list[tuple[int, ...]]],
) -> list[tuple[tuple[int, int, int], int, list[int]]]:
    """For every vertex w of the brace whose `pendant_model` is `model`,
    the edge Mostar index of the brace plus k pendant edges at w, exactly:
    k (m - 1) + sum of |c_e + k s_e| with s_e = s_e(w) (module docstring).
    From k0 = max(0, max -s_e c_e) on it is poly = (1, N - 1 - b,
    b - bN + C) in m, N counting the edges with s_e != 0 and C = sum of
    s_e c_e plus the |c_e| with s_e = 0; k0 is the least such k, as
    |c_e + k s_e| = |s_e c_e + k| makes the exact index minus poly
    2 * sum over s_e != 0 of max(0, d_e - k), d_e = -s_e c_e, positive for
    k < k0.  Returns, per w, (poly, holds_from = b + k0, ds), ds the
    positive d_e, which `tail_index` reads."""
    pairs, ce, rows = model
    b = len(pairs)
    total = sum(map(abs, ce))
    forms = []
    for row in rows:
        prods = list(map(mul, ce, row))  # s_e c_e
        n_sloped = b - row.count(0)
        const = total - sum(map(abs, prods)) + sum(prods)
        ds = [-x for x in prods if x < 0]
        forms.append(((1, n_sloped - 1 - b, b - b * n_sloped + const), b + max(ds, default=0), ds))
    return forms


def tail_index(tail: tuple[tuple[int, int, int], int, list[int]], k: int, m: int) -> int:
    """The exact index of the brace plus k pendant edges at the vertex of
    `tail` (a `model_tails` entry), m = b + k edges in all: poly(m) plus
    2 * sum of max(0, d_e - k)."""
    return poly_eval(tail[0], m) + 2 * sum([d - k for d in tail[2] if d > k])


def mostar_summary(g: Graph) -> MostarSummary:
    """Full per-edge breakdown, counted off `_near` with edge seeds."""
    pairs, inc = _edge_seeds(g.adj)
    reports, index = [], 0
    for (u, v), (x, y) in zip(pairs, _near(g.adj, pairs, inc)):
        a, b = x.bit_count(), y.bit_count()
        index += abs(a - b)
        reports.append(EdgeReport(u, v, a, b, len(pairs) - 1 - a - b))
    return MostarSummary(write_graph6(g), index, tuple(reports))
