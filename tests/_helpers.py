"""Shared test utilities: independent oracles and random graph generators.

Everything here deliberately avoids the library's own fast paths (bitset
BFS, shared distance tables, canonical labeling) so tests compare two
genuinely different routes to the same numbers.
"""

from __future__ import annotations

import itertools
import random
from collections import deque

from mostar import Graph


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
    edges = [(e.u, e.v) for e in g.edges()]
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


def naive_vertex_mostar(g: Graph) -> int:
    """Sum over edges uv of |n_u - n_v|, vertices compared one by one."""
    dist = [naive_distances(g, s) for s in range(g.n)]
    total = 0
    for e in g.edges():
        du, dv = dist[e.u], dist[e.v]
        nu = sum(du[x] < dv[x] for x in range(g.n))
        nv = sum(dv[x] < du[x] for x in range(g.n))
        total += abs(nu - nv)
    return total


def brute_connected_class_count(n: int, m: int) -> int:
    """Labeled enumeration of every m-edge subset, connectivity filter,
    canonical dedup."""
    from mostar import canon, is_connected

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    seen = set()
    for combo in itertools.combinations(pairs, m):
        g = Graph.from_edges(n, combo)
        if not is_connected(g):
            continue
        seen.add(canon(g).key)
    return len(seen)


def all_graphs(n: int):
    """Every labeled simple graph on n vertices."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for bits in range(1 << len(pairs)):
        yield Graph.from_edges(
            n, [e for k, e in enumerate(pairs) if bits >> k & 1]
        )


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
    `enumeration._accept_edge_child`."""
    from mostar import canon
    from mostar.canon import pair_orbit_reps
    from mostar.enumeration import _edge_inv

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
    cres = canon(Graph(n, child))
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


def hang_random_trees(rng: random.Random, g: Graph, count: int) -> Graph:
    """Attach `count` new vertices one by one, each to a uniformly random
    earlier vertex, so random trees hang off random vertices of g."""
    for _ in range(count):
        g = g.add_pendant(rng.randrange(g.n))
    return g


def reference_measured_delta(brace: Graph, roles, rule, params) -> int:
    """A shift rule's delta by build, shift and difference: role v_i gets
    a_i pendants one `add_pendant` call at a time, `shift_pendants` moves
    them as the rule says, and the indices are differenced.  Same contract
    as `shifts.measured_delta`."""
    from mostar import edge_mostar
    from mostar.shifts import ShiftSpec, shift_pendants

    g = brace
    for i, v in enumerate(roles, start=1):
        for _ in range(params.get(f"a{i}", 0)):
            g = g.add_pendant(v)
    shifted = g
    for src, dst, pname in rule.moves:
        k = params.get(pname, 0)
        if k:
            shifted = shift_pendants(shifted, ShiftSpec(roles[src - 1], roles[dst - 1], k))
    return edge_mostar(shifted) - edge_mostar(g)
