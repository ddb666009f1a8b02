import json
import random
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from mostar import (
    Graph,
    GraphError,
    all_pairs_distances,
    canonical_form,
    cycle,
    edge_mostar,
    edge_report,
    is_connected,
    mostar_summary,
    parse_graph6,
    path,
)
from mostar.braces import kernel_braces
from mostar.graphs import with_pendants
from mostar.indices import model_tails, pendant_model, poly_eval, tail_index
from mostar.shifts import GROUPS
from _helpers import (
    complete,
    dot_product,
    naive_distances,
    naive_edge_mostar,
    naive_edge_rows,
    pendant_row_mismatches,
    pendant_row_sum,
    random_connected,
    random_connected_density,
    random_graph,
    random_tree,
    relabel,
    star,
)


def test_edge_report_triangle():
    r = edge_report(cycle(3), (0, 1))
    assert (r.m_u, r.m_v, r.psi) == (1, 1, 0)


def test_edge_report_path():
    r = edge_report(path(4), (0, 1))
    assert (r.m_u, r.m_v, r.psi) == (0, 2, 2)


def test_edge_report_star():
    r = edge_report(star(5), (0, 1))
    assert (r.m_u, r.m_v, r.psi) == (3, 0, 3)
    # any pair: reported as (u, v) with u < v, counts oriented the same way
    assert edge_report(star(5), (1, 0)) == r


def test_edge_report_errors():
    with pytest.raises(GraphError):
        edge_report(cycle(4), (0, 2))
    with pytest.raises(GraphError):
        edge_report(cycle(4), (1, 1))
    with pytest.raises(GraphError):
        edge_report(Graph.from_edges(4, [(0, 1), (2, 3)]), (0, 1))


def test_cycles_are_balanced():
    for n in range(3, 10):
        assert edge_mostar(cycle(n)) == 0


def test_three_squares_value():
    g = Graph.from_edges(
        10,
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0),
         (0, 7), (7, 8), (8, 9), (9, 0)],
    )
    assert edge_mostar(g) == 96  # 12^2 - 12 - 36


def test_cycle_with_pendants_value():
    assert edge_mostar(with_pendants(cycle(3), {0: 2})) == 12  # (m-3)(m+1) at m=5


def test_summary_partition_and_json():
    g = with_pendants(cycle(4), {0: 3})
    s = mostar_summary(g)
    assert s.edge_mostar == sum(r.psi for r in s.per_edge)
    d = json.loads(json.dumps(s.to_dict()))
    assert set(d) == {"graph6", "edge_mostar", "edges"}
    assert set(d["edges"][0]) == {"u", "v", "mu", "mv", "eq", "psi"}
    for row in d["edges"]:
        assert row["mu"] + row["mv"] + row["eq"] == g.m - 1


def test_summary_json_writer_matches_json_dumps():
    """`to_json` is `json.dumps(to_dict(), sort_keys=True)` byte for byte:
    on random connected graphs, a graph6 string holding a backslash, which
    JSON escapes, the one-vertex graph (no edges) and orders past 62 (the
    four-byte order field)."""
    rng = random.Random(20)
    backslash = parse_graph6("C\\")
    graphs = [random_connected_density(rng, 1, 30) for _ in range(60)]
    graphs += [backslash, Graph.from_edges(1, []), path(63),
               with_pendants(cycle(40), {0: 30})]
    for g in graphs:
        s = mostar_summary(g)
        assert s.to_json() == json.dumps(s.to_dict(), sort_keys=True), s.graph6
    assert mostar_summary(backslash).to_json().endswith('"graph6": "C\\\\"}')


@given(st.integers(0, 10**6))
@settings(derandomize=True, database=None, max_examples=120, deadline=None)
def test_partition_identity_and_incident_bound(seed):
    """m_u + m_v + eq_e = m - 1 on every edge, and the deficit identity
    Mo_e(G) = m(m - 1) - sum over e of (eq_e + 2 min(m_u, m_v)) (module
    docstring), each term from the definition's `edge_report` row, not from
    `mostar_summary`, whose eq is derived as m - 1 - m_u - m_v."""
    rng = random.Random(seed)
    g = random_connected(rng, 2, 10)
    dm = all_pairs_distances(g)
    deficit = 0
    for u, v in g.edges():
        r = edge_report(g, (u, v), dm)
        assert r.m_u + r.m_v + r.equidistant == g.m - 1
        assert r.m_u >= g.degree(u) - 1
        assert r.m_v >= g.degree(v) - 1
        deficit += r.equidistant + 2 * min(r.m_u, r.m_v)
    assert edge_mostar(g) == g.m * (g.m - 1) - deficit


def test_brace_bound():
    """On every kernel brace of up to 12 edges, bicyclic and tricyclic,
    with 0..3 random pendant edges at each vertex: min(m_u, m_v) >= 1 on
    every brace edge (`edge_report`), so Mo_e <= m(m - 1) - 2b."""
    rng = random.Random(23)
    checked = 0
    for c in (2, 3):
        for b, braces in kernel_braces(c, range(13)).items():
            for brace, _, _ in braces:
                g = with_pendants(brace, {v: rng.randint(0, 3) for v in range(brace.n)})
                dm = all_pairs_distances(g)
                for e in brace.edges():
                    r = edge_report(g, e, dm)
                    assert min(r.m_u, r.m_v) >= 1, (brace.edges(), e)
                assert edge_mostar(g) <= g.m * (g.m - 1) - 2 * b, brace.edges()
                checked += 1
    assert checked == 628


def assert_matches_definition(g):
    s = mostar_summary(g)
    assert [(r.u, r.v) for r in s.per_edge] == g.edges()
    assert [(r.m_u, r.m_v, r.equidistant) for r in s.per_edge] == naive_edge_rows(g)
    assert s.edge_mostar == edge_mostar(g) == naive_edge_mostar(g)


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_oracle_equivalence(seed):
    assert_matches_definition(random_connected_density(random.Random(seed), 1, 30))


@pytest.mark.parametrize("brace", [
    pytest.param(b, id=f"{gid}-{i}")
    for gid, group in sorted(GROUPS.items())
    for i, b in enumerate(group.realizations)
])
def test_oracle_equivalence_pendant_braces(brace):
    rng = random.Random(brace.n * 1000 + brace.m)
    for k in (0, 1, 40, *(rng.randint(2, 39) for _ in range(5))):
        g = brace
        for _ in range(k):
            g = with_pendants(g, {rng.randrange(brace.n): 1})
        assert_matches_definition(g)


def test_pendant_tail_against_edge_mostar(registry):
    """At every vertex of every registry base and shift-rule brace:
    `tail_index` equals edge_mostar from k = 0 through 20 sizes past k0
    (k0 is at most max |c_e| <= b - 1), poly alone equals it from
    holds_from on, and poly fails just below holds_from."""
    braces = [registry[fid].base_graph() for fid in registry.ids()]
    braces += [b for group in GROUPS.values() for b in group.realizations]
    for brace in braces:
        b = brace.m
        for w, tail in enumerate(model_tails(pendant_model(brace.adj))):
            poly, holds_from, _ = tail
            assert poly[0] == 1 and holds_from >= b
            g = brace
            for m in range(b, 2 * b + 21):
                expected = tail_index(tail, m - b, m)
                assert edge_mostar(g) == expected, (brace, w, m)
                assert m < holds_from or expected == poly_eval(poly, m), (brace, w, m)
                g = with_pendants(g, {w: 1})
            m = holds_from - 1
            if m >= b:
                assert tail_index(tail, m - b, m) != poly_eval(poly, m), (brace, w)


@pytest.mark.parametrize("n", range(1, 13))
def test_oracle_equivalence_named_families(n):
    for g in (path(n), star(n), complete(n), *([cycle(n)] if n >= 3 else [])):
        assert_matches_definition(g)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_pendant_tree_contribution_invariance(seed):
    """Swapping one pendant tree for another of equal size cannot change the
    host graph's own edge contributions."""
    rng = random.Random(seed)
    g1 = random_connected(rng, 3, 7)
    u = rng.randrange(g1.n)
    size = rng.randint(2, 5)
    t1 = random_tree(rng, size)
    t2 = random_tree(rng, size)

    def host_contribution(t):
        fused = dot_product(g1, u, t, rng_root)
        dm = all_pairs_distances(fused)
        return sum(edge_report(fused, e, dm).psi for e in g1.edges())

    rng_root = rng.randrange(size)
    assert host_contribution(t1) == host_contribution(t2)


def test_disconnected_rejected():
    """The ball recurrence's exit, with `edge_mostar`'s leaf rule, is the
    connectivity check: edgeless graphs, isolated vertices and components
    far apart all raise, and so do graphs whose leaves alone could hide a
    second component from the recurrence over the other vertices (two
    K2s, a star beside a K2, a star or P3 beside an isolated vertex, two
    K_{1,3}s, whose centres carry only pendant runs, a star beside a
    triangle, and a K2 on vertices 0 and 1 beside a tricyclic core)."""
    for g in (
        Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)]),
        Graph.from_edges(2, []),
        Graph.from_edges(5, []),
        Graph.from_edges(4, [(1, 2)]),
        Graph.from_edges(24, [(i, i + 1) for i in range(11)]
                         + [(i, i + 1) for i in range(12, 23)]),
        Graph.from_edges(4, [(0, 1), (2, 3)]),
        Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (4, 5)]),
        Graph.from_edges(6, [(0, 1), (2, 3), (2, 4), (2, 5)]),
        Graph.from_edges(5, [(1, 0), (1, 2), (1, 3)]),
        Graph.from_edges(4, [(0, 1), (1, 2)]),
        Graph.from_edges(4, [(1, 2), (2, 3)]),
        Graph.from_edges(8, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7)]),
        Graph.from_edges(7, [(0, 1), (0, 2), (0, 3), (4, 5), (5, 6), (6, 4)]),
        Graph.from_edges(22, [(0, 1)] + [(i, i + 1) for i in range(2, 21)] + [(21, 2)]
                         + [(2, 11), (5, 16)]),
    ):
        for index in (edge_mostar, mostar_summary,
                      lambda g: model_tails(pendant_model(g.adj)),
                      lambda g: pendant_model(g.adj)):
            with pytest.raises(GraphError, match="requires a connected graph"):
                index(g)


@pytest.mark.parametrize("n", [0, 1])
def test_trivial_graphs_score_zero(n):
    g = Graph.from_edges(n, [])
    assert edge_mostar(g) == mostar_summary(g).edge_mostar == 0
    assert mostar_summary(g).per_edge == ()


def test_graphs_of_leaves_score_m_minus_one_per_pendant_edge():
    """Graphs whose non-leaf vertices number 0 or 1: K2 scores 0, P3
    scores 2 and the star K_{1,r} scores r (r - 1), every edge pendant."""
    assert edge_mostar(path(2)) == 0
    assert edge_mostar(path(3)) == 2
    for r in range(1, 12):
        assert edge_mostar(star(r + 1)) == mostar_summary(star(r + 1)).edge_mostar == r * (r - 1)


@given(st.integers(0, 10**6))
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
def test_pendants_and_pieces_match_definition_or_raise(seed):
    """A random graph (possibly disconnected), random pendant edges hung on
    it, and sometimes a disjoint piece (a vertex, a K2, a star or another
    random graph): `edge_mostar` equals the sum of `edge_report` psi, or
    raises GraphError exactly when the graph is disconnected."""
    rng = random.Random(seed)
    g = random_graph(rng, 1, 8)
    if rng.random() < 0.7:
        g = with_pendants(g, {rng.randrange(g.n): rng.randint(1, 4)
                              for _ in range(rng.randint(1, 4))})
    if rng.random() < 0.3:
        piece = rng.choice([Graph.from_edges(1, []), path(2), star(rng.randint(3, 5)),
                            random_graph(rng, 1, 5)])
        g = Graph.from_edges(g.n + piece.n,
                             g.edges() + [(u + g.n, v + g.n) for u, v in piece.edges()])
    if not is_connected(g):
        with pytest.raises(GraphError, match="requires a connected graph"):
            edge_mostar(g)
        return
    dm = all_pairs_distances(g)
    assert edge_mostar(g) == sum(edge_report(g, e, dm).psi for e in g.edges())


@given(st.integers(0, 10**6))
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
def test_relabeled_pendant_graphs_keep_their_index(seed):
    """A connected graph with pendant edges hung on it, relabeled by a
    random permutation, so that leaves are numbered below and between the
    vertices they hang on: `edge_mostar` does not change and equals the
    sum of `edge_report` psi."""
    rng = random.Random(seed)
    g = random_connected(rng, 2, 8)
    g = with_pendants(g, {rng.randrange(g.n): rng.randint(1, 12)
                          for _ in range(rng.randint(1, 4))})
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = relabel(g, perm)
    dm = all_pairs_distances(h)
    assert edge_mostar(h) == edge_mostar(g) == sum(edge_report(h, e, dm).psi for e in h.edges())


def test_pendant_row_sum_on_rule_braces():
    """The row-sum oracle: on every shift-rule brace, with 0..8 pendant
    edges at each vertex of every pair (8,505 graphs), `edge_mostar`
    equals k (m - 1) + sum over e of |c_e + sum_w a_w s_e(w)| off
    `pendant_model`, and so it does for a few count maps with a run of
    more than 64 pendant edges at one vertex (`tests/deep.py pendant_rows`
    checks the triples)."""
    for gid, group in sorted(GROUPS.items()):
        for i, brace in enumerate(group.realizations):
            bad = pendant_row_mismatches(brace, 2, 8)
            assert not bad, (gid, i, len(bad), bad[:3])
            model = pendant_model(brace.adj)
            last = brace.n - 1
            for counts in ({0: 70}, {last: 130, 0: 3}, {1: 65, 2: 1, last: 71}):
                assert edge_mostar(with_pendants(brace, counts)) == pendant_row_sum(
                    model, counts), (gid, i, counts)


def test_pendant_tail_heads_closed_form(registry):
    """The heads, `tail_index` below holds_from, read off the positive
    d_e, equal the direct sum k (b + k - 1) + sum of |c_e + k s_e| with
    c_e and s_e taken from the definition (dict-BFS distances), at every
    vertex of every registry base and shift-rule brace."""
    braces = [registry[fid].base_graph() for fid in registry.ids()]
    braces += [b for group in GROUPS.values() for b in group.realizations]
    for brace in braces:
        b = brace.m
        rows = naive_edge_rows(brace)
        dist = [naive_distances(brace, s) for s in range(brace.n)]
        for w, tail in enumerate(model_tails(pendant_model(brace.adj))):
            holds_from = tail[1]
            terms = [
                (mu - mv, (dist[w][u] < dist[w][v]) - (dist[w][u] > dist[w][v]))
                for (u, v), (mu, mv, _) in zip(brace.edges(), rows)
            ]
            k0 = max(0, *(-s * c for c, s in terms))
            assert holds_from == b + k0, (brace, w)
            direct = [k * (b + k - 1) + sum(abs(c + k * s) for c, s in terms)
                      for k in range(k0)]
            assert [tail_index(tail, k, b + k) for k in range(k0)] == direct, (brace, w)


# the best single-attach tail of each brace size: tricyclic 6..16 edges,
# bicyclic 5..18; from b_3 = 12 and b_2 = 8 on the constant is
# -ceil(b(b-c)/c), written floor(-b(b-c)/c)
BEST_TAILS = {
    3: {6: (1, -4, -12), 7: (1, -2, -31), 8: (1, -1, -48), 9: (1, -1, -52),
        10: (1, -1, -40), 11: (1, -1, -42),
        **{b: (1, -1, -b * (b - 3) // 3) for b in range(12, 17)}},
    2: {5: (1, -2, -15), 6: (1, -1, -28), 7: (1, -1, -30),
        **{b: (1, -1, -b * (b - 2) // 2) for b in range(8, 19)}},
}


def test_best_single_attach_tail_of_every_brace_size(registry):
    """Per-brace tail forms on every kernel brace up to 16 tricyclic and
    18 bicyclic edges: the best single-attach tail of each brace size,
    taken over all its braces and vertices and ordered as quadratics in m
    (so for every large m), is the `BEST_TAILS` table.  Over all sizes the
    best is m^2 - m - 36, reached by A0's 12-edge brace alone, and
    m^2 - m - 24, by B0's 8-edge brace alone.  A brace beating a published
    tail would be a finding against the theorems."""
    for c, fid, best_tail in ((3, "A0", (1, -1, -36)), (2, "B0", (1, -1, -24))):
        best = {}
        for b, braces in kernel_braces(c, range(max(BEST_TAILS[c]) + 1)).items():
            for g, _, _ in braces:
                tail = max(poly for poly, _, _ in model_tails(pendant_model(g.adj)))
                if b not in best or tail > best[b][0]:
                    best[b] = (tail, [g])
                elif tail == best[b][0]:
                    best[b][1].append(g)
        assert {b: t for b, (t, _) in best.items()} == BEST_TAILS[c], c
        tail, holders = max(best.values(), key=lambda t: t[0])
        assert tail == best_tail, c
        base = registry[fid].base_graph()
        assert [canonical_form(g) for g in holders] == [canonical_form(base)], c
        assert [b for b, (t, _) in best.items() if t == tail] == [base.m], c


def _kernel_braces_up_to(c, top):
    return [g for found in kernel_braces(c, range(top + 1)).values() for g, _, _ in found]


def test_pendant_model_matches_definition():
    """On every kernel brace up to 14 edges (tricyclic) and 13 edges
    (bicyclic): the edges are `g.edges()`, c_e is m_u - m_v from the
    definition, and s_e(w) compares dict-BFS distances d(u, w), d(v, w)."""
    for c, top in ((3, 14), (2, 13)):
        for g in _kernel_braces_up_to(c, top):
            pairs, ce, rows = pendant_model(g.adj)
            assert pairs == g.edges()
            assert ce == [mu - mv for mu, mv, _ in naive_edge_rows(g)], g.edges()
            dist = [naive_distances(g, s) for s in range(g.n)]
            assert rows == [
                tuple((dist[u][w] < dist[v][w]) - (dist[u][w] > dist[v][w]) for u, v in pairs)
                for w in range(g.n)
            ], g.edges()


def test_pendants_best_at_one_vertex():
    """One attachment vertex, on every kernel brace up to 14 edges in both
    classes: of all ways to hang k pendant edges (k = 2; k = 3 up to 12
    edges), one with all k at a single vertex has the largest index.

    The index is k (m - 1) plus V(a) = sum over e of |c_e + sum_w a_w
    s_e(w)|, with a_w pendants at w.  V is convex in a, a sum of absolute
    values of affine functions, and the distributions with sum k lie in
    the simplex whose corners are the k e_w; a convex function is largest
    at a corner, so this holds for every k, and a failure here would be a
    fault in the model."""
    for c in (3, 2):
        for g in _kernel_braces_up_to(c, 14):
            _, ce, rows = pendant_model(g.adj)

            def value(at):
                sums = ce
                for w in at:
                    sums = [x + s for x, s in zip(sums, rows[w])]
                return sum(map(abs, sums))

            for k in (2, 3) if g.m <= 12 else (2,):
                best = max(map(value, combinations_with_replacement(range(g.n), k)))
                assert best == max(value((w,) * k) for w in range(g.n)), (g.edges(), k)
