import itertools
import random
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from mostar import (
    EnumerationTask,
    Graph,
    canon,
    canonical_form,
    cycle,
    path,
)
from mostar.canon import _Search, pair_orbit_reps
from mostar.enumeration import bicyclic_task, tricyclic_task
from mostar.families import builtin_registry
from mostar.graphs import _bits
import _walk
from _walk import enumerate_connected
from _helpers import (
    brute_connected_class_count,
    canon_connected_class_count,
    circulants,
    complete,
    complete_bipartite,
    hypercube,
    petersen,
    random_connected,
    random_graph,
    random_twin_rich,
    reference_canon,
    relabel,
    star,
)


def brute_canon_key(g):
    best = None
    for perm in itertools.permutations(range(g.n)):
        adj = [0] * g.n
        for v in range(g.n):
            acc = 0
            for w in _bits(g.adj[v]):
                acc |= 1 << perm[w]
            adj[perm[v]] = acc
        t = tuple(adj)
        if best is None or t > best:
            best = t
    return (g.n, best)


def brute_orbits(g):
    parent = list(range(g.n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for perm in itertools.permutations(range(g.n)):
        ok = True
        for v in range(g.n):
            img = 0
            for w in _bits(g.adj[v]):
                img |= 1 << perm[w]
            if img != g.adj[perm[v]]:
                ok = False
                break
        if ok:
            for v in range(g.n):
                a, b = find(v), find(perm[v])
                if a != b:
                    parent[max(a, b)] = min(a, b)
    return tuple(find(v) for v in range(g.n))


def test_relabeled_c4_same_form():
    g = cycle(4)
    assert canonical_form(g) == canonical_form(relabel(g, [2, 0, 3, 1]))


def test_c4_p4_distinct():
    assert canonical_form(cycle(4)) != canonical_form(path(4))


def test_same_graph_two_descriptions():
    """K4 less the edge 01 and C4 plus the chord 02."""
    k4_minus = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    c4_plus = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    assert canonical_form(k4_minus) == canonical_form(c4_plus)


def test_empty_graph():
    res = canon(Graph(0, ()))
    assert (res.n, res.canon_adj, res.orbit_of) == (0, (), ())
    assert canonical_form(Graph(0, ())) == "?"


def test_partition_agrees_with_brute_force():
    rng = random.Random(11)
    for n in range(1, 6):
        by_brute = defaultdict(set)
        by_canon = defaultdict(set)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for _ in range(150):
            chosen = tuple(sorted(e for e in pairs if rng.random() < rng.choice((0.3, 0.6))))
            g = Graph.from_edges(n, chosen)
            by_brute[brute_canon_key(g)].add(chosen)
            by_canon[canonical_form(g)].add(chosen)
        assert sorted(map(sorted, by_brute.values())) == sorted(
            map(sorted, by_canon.values())
        )


def test_orbits_are_full_automorphism_orbits():
    rng = random.Random(13)
    for _ in range(150):
        n = rng.randint(1, 6)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = Graph.from_edges(n, [e for e in pairs if rng.random() < 0.5])
        assert canon(g).orbit_of == brute_orbits(g)


def test_structured_orbits():
    res = canon(star(6))
    assert len(set(res.orbit_of)) == 2  # center and the leaves
    res = canon(cycle(6))
    assert len(set(res.orbit_of)) == 1


def test_pair_orbit_reps_on_star_edges():
    g = star(5)
    res = canon(g)
    reps = pair_orbit_reps(g.n, res.generators, g.edges())
    assert len(set(reps.values())) == 1  # all spokes equivalent


def brute_pair_reps(g, pairs):
    """Smallest pair of each orbit under every automorphism of g, found by
    trying all permutations."""
    orbits = {p: {p} for p in pairs}
    for perm in itertools.permutations(range(g.n)):
        if relabel(g, list(perm)) == g:
            for u, v in pairs:
                orbits[u, v].add(tuple(sorted((perm[u], perm[v]))))
    return {p: min(orbit) for p, orbit in orbits.items()}


def test_pair_orbit_reps_match_brute_force():
    """On edge sets and non-edge sets of random graphs with n <= 6, the
    union-find representatives are the smallest pairs of the full
    automorphism orbits; with every permutation of 5 points as the one
    generator they are the smallest pairs of its cycles on pairs; with no
    generators every pair stands alone."""
    rng = random.Random(29)
    for _ in range(120):
        n = rng.randint(2, 6)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = Graph.from_edges(n, [e for e in pairs if rng.random() < 0.5])
        gens = canon(g).generators
        for subset in ([e for e in pairs if g.has_edge(*e)],
                       [e for e in pairs if not g.has_edge(*e)]):
            assert pair_orbit_reps(n, gens, subset) == brute_pair_reps(g, subset)
    pairs5 = list(itertools.combinations(range(5), 2))
    for perm in itertools.permutations(range(5)):
        want = {}
        for p in pairs5:
            orbit, q = {p}, p
            while (q := tuple(sorted((perm[q[0]], perm[q[1]])))) != p:
                orbit.add(q)
            want[p] = min(orbit)
        assert pair_orbit_reps(5, (perm,), pairs5) == want
    assert pair_orbit_reps(4, (), [(0, 1), (2, 3)]) == {(0, 1): (0, 1), (2, 3): (2, 3)}


@given(st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_relabeling_invariance(seed):
    rng = random.Random(seed)
    g = random_connected(rng, 2, 10)
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert canonical_form(g) == canonical_form(relabel(g, perm))


@pytest.fixture(scope="module")
def oracle_graphs():
    """Every graph `canon` labels in the tricyclic m <= 10 and bicyclic
    m <= 9 walks, 2,000 random graphs and 1,000 twin-rich graphs
    with n <= 16, every circulant with n <= 16, and the stars K_{1,n-1}
    and complete graphs K_n with n <= 32 and the K_{2,n} with n <= 31,
    where `canon` branches on one vertex of each twin class per node (the
    largest the reference's 5-bit neighbour counts take)."""
    walk = []

    def recording(g):
        walk.append(g)
        return canon(g)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_walk, "canon", recording)
        for task in [tricyclic_task(m) for m in range(6, 11)] + \
                [bicyclic_task(m) for m in range(5, 10)]:
            for _ in enumerate_connected(task):
                pass
    rng = random.Random(41)
    return {
        "walk": walk,
        "random": [random_graph(rng, 1, 16) for _ in range(2000)],
        "twin-rich": [random_twin_rich(rng) for _ in range(1000)],
        "circulant": list(circulants(16)),
        "twin classes": [*map(star, range(1, 33)), *map(complete, range(1, 33)),
                         *(complete_bipartite(2, n) for n in range(1, 32))],
    }


def test_canon_matches_reference_search(oracle_graphs):
    """Splitter-only refinement changes nothing `canon` returns but the
    generators: canon_adj, labeling and orbit_of equal the full-recount
    search's, and so do the pair orbits of the two generator sets on
    edges and on non-edges.  Every generator is an automorphism."""
    assert len(oracle_graphs["walk"]) > 1000
    for kind, graphs in oracle_graphs.items():
        for g in graphs:
            got, want = canon(g), reference_canon(g)
            assert (got.canon_adj, got.labeling, got.orbit_of) == \
                (want.canon_adj, want.labeling, want.orbit_of), (kind, g)
            for gen in got.generators:
                assert sorted(gen) == list(range(g.n)), (kind, g)
                assert relabel(g, list(gen)) == g, (kind, g, gen)
            if got.generators == want.generators:
                continue
            pairs = list(itertools.combinations(range(g.n), 2))
            for subset in ([e for e in pairs if g.has_edge(*e)],
                           [e for e in pairs if not g.has_edge(*e)]):
                assert pair_orbit_reps(g.n, got.generators, subset) == \
                    pair_orbit_reps(g.n, want.generators, subset), (kind, g)


def test_canon_matches_reference_search_on_registry_members(registry):
    """Every registry member holds its pendant edges as twins at one
    vertex: `canon` equals the reference search in canon_adj, labeling
    and orbit_of on each tricyclic member of 17..22 edges and each
    bicyclic member of 17..30 (172 graphs, up to 29 vertices, past the
    other oracles; fewer than 32 pendants, as the reference's count
    packing needs)."""
    sizes = {3: range(17, 23), 2: range(17, 31)}
    count = 0
    for fid in registry.ids():
        spec = registry[fid]
        for m in sizes.get(spec.m_base - spec.n_base + 1, ()):
            g = spec.build(m)
            got, want = canon(g), reference_canon(g)
            assert (got.canon_adj, got.labeling, got.orbit_of) == \
                (want.canon_adj, want.labeling, want.orbit_of), (fid, m)
            count += 1
    assert count == 172


def test_twins_branched_once(monkeypatch):
    """A vertex whose twin was already branched on at a node is skipped,
    so a graph whose every cell is one twin class needs one leaf: the
    stars K_{1,n-1} up to n = 62, the K_n and the K_{2,n} (n >= 3, where
    no automorphism swaps the sides); A0's member at m = 22, whose pendant
    edges hang as twins at one vertex, needs at most 4."""
    leaves = []
    leaf = _Search._leaf

    def counting(self, cells):
        leaves.append(cells)
        leaf(self, cells)

    monkeypatch.setattr(_Search, "_leaf", counting)

    def count(g):
        leaves.clear()
        canon(g)
        return len(leaves)

    for n in range(1, 63):
        assert count(star(n)) == count(complete(n)) == 1, n
    for n in range(3, 40):
        assert count(complete_bipartite(2, n)) == 1, n
    assert count(builtin_registry()["A0"].build(22)) <= 4


def test_orbits_of_every_connected_graph_to_6_vertices():
    """orbit_of equals the brute-force automorphism orbits on every connected
    class with n <= 6, as enumerated and under one random relabelling."""
    rng = random.Random(43)
    count = 0
    for n in range(1, 7):
        for m in range(n - 1, n * (n - 1) // 2 + 1):
            for g in enumerate_connected(EnumerationTask(n, m)):
                perm = list(range(n))
                rng.shuffle(perm)
                for h in (g, relabel(g, perm)):
                    assert canon(h).orbit_of == brute_orbits(h), h
                count += 1
    assert count == 1 + 1 + 2 + 6 + 21 + 112   # OEIS A001349


def test_vertex_transitive_relabeling_invariance():
    """Vertex-transitive graphs refine to one cell and lean hardest on the
    automorphism pruning: Petersen, Q4 and every circulant with n <= 16."""
    rng = random.Random(47)
    for g in [petersen(), hypercube(4), *circulants(16)]:
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_form(relabel(g, perm)) == canonical_form(g), g


@pytest.mark.parametrize("fid,m,n", [("A0", 22, 20), ("B0", 30, 29), ("A0", 64, 62)])
def test_relabeling_invariance_past_every_oracle(fid, m, n):
    """Family members larger than any graph the oracles above reach, up to
    62 vertices, the last order graph6 writes in one byte: five seeded
    relabellings each keep the canonical form, and every generator `canon`
    returns is an automorphism."""
    g = builtin_registry()[fid].build(m)
    assert (g.n, g.m) == (n, m)
    form = canonical_form(g)
    assert form[0] == chr(n + 63)
    rng = random.Random(m)
    for _ in range(5):
        perm = list(range(n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        assert canonical_form(h) == form, (fid, perm)
        for gen in canon(h).generators:
            assert relabel(h, list(gen)) == h, (fid, perm, gen)


def test_orbit_count_equals_canon_dedup():
    """The Burnside class count that the completeness tests use agrees with
    deduplicating every labelled connected graph by `canon`, for n <= 6."""
    for n in range(1, 7):
        for m in range(n * (n - 1) // 2 + 1):
            assert brute_connected_class_count(n, m) == \
                canon_connected_class_count(n, m), (n, m)
