import functools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from mostar import (
    Graph, GraphError, braces, canonical_form, cycle, edge_mostar, path,
)
from mostar.braces import (
    BraceClass,
    COMPOSITE,
    DIGON_RING,
    FOUR_THETA,
    K4_SUBDIVISION,
    NOT_TRICYCLIC,
    THREE_HUB,
    _KERNELS,
    _edge_maps,
    classify,
    kernel_braces,
)
from mostar.enumeration import EnumerationTask, bicyclic_task, tricyclic_task
from mostar.families import builtin_registry
from mostar.graphs import parse_graph6, with_pendants
from _walk import enumerate_connected
from _helpers import (
    _cut_vertices,
    brace_class_filters,
    cyclomatic_number,
    brute_cut_vertices,
    classify_graph,
    brute_strip_pendants,
    complete,
    enumerate_kernels,
    hang_random_trees,
    induced,
    neighbors,
    random_connected,
    random_connected_density,
    reference_canon,
    reference_kernel_braces,
    relabel,
    skeleton,
    strip_pendants,
)


def test_strip_cycle_with_pendants():
    d = strip_pendants(with_pendants(cycle(4), {0: 5}))
    assert d.brace.m == 4
    assert d.pendant_count == 5
    assert d.attachment_profile[0] == 5
    assert sum(d.attachment_profile.values()) == 5


def test_strip_three_squares():
    g = with_pendants(builtin_registry()["A0"].build(12), {0: 3})
    d = strip_pendants(g)
    assert d.brace.m == 12
    assert d.pendant_count == 3


def test_strip_fixed_point():
    d = strip_pendants(cycle(6))
    assert d.brace.m == 6 and d.pendant_count == 0


def test_strip_idempotent_and_preserves_cyclomatic():
    g = with_pendants(complete(4), {1: 2, 3: 1})
    d = strip_pendants(g)
    assert cyclomatic_number(d.brace) == cyclomatic_number(g)
    again = strip_pendants(d.brace)
    assert again.brace == d.brace and again.pendant_count == 0


def test_strip_deep_tree():
    # a hanging path strips all the way back to the cycle
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 5)])
    d = strip_pendants(g)
    assert d.brace.m == 3
    assert d.pendant_count == 3
    assert d.attachment_profile[0] == 3


def test_strip_tree_rejected():
    with pytest.raises(GraphError):
        strip_pendants(path(5))


def test_disconnected_rejected():
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    with pytest.raises(GraphError, match="brace extraction requires a connected graph"):
        strip_pendants(two_triangles)
    with pytest.raises(GraphError, match="classification requires a connected graph"):
        classify_graph(two_triangles)


def test_skeleton_four_theta():
    h1 = builtin_registry()["H1"].base_graph()
    sk = skeleton(h1)
    assert len(sk.branch_vertices) == 2
    assert sk.path_lengths == (1, 2, 2, 2)


def test_skeleton_k4():
    sk = skeleton(complete(4))
    assert len(sk.branch_vertices) == 4
    assert sk.path_lengths == (1, 1, 1, 1, 1, 1)


def test_skeleton_three_loops():
    sk = skeleton(builtin_registry()["A0"].base_graph())
    assert sk.branch_vertices == (0,)
    assert sk.paths == ((0, 0, 4), (0, 0, 4), (0, 0, 4))


def test_skeleton_bare_cycle():
    sk = skeleton(cycle(6))
    assert sk.branch_vertices == ()
    assert sk.paths == ((0, 0, 6),)


def test_classify_examples():
    reg = builtin_registry()
    assert classify_graph(reg["H1"].build(9)).kind == FOUR_THETA
    assert classify_graph(reg["H1"].build(9)).path_parameters == (1, 2, 2, 2)
    assert classify_graph(reg["A0"].build(13)).kind == COMPOSITE
    k4p = with_pendants(complete(4), {0: 3})
    assert classify_graph(k4p) == classify_graph(with_pendants(complete(4), {1: 1}))
    assert classify_graph(k4p).kind == K4_SUBDIVISION
    assert classify_graph(k4p).path_parameters == (1, 1, 1, 1, 1, 1)
    assert classify_graph(cycle(9)).kind == NOT_TRICYCLIC
    assert classify_graph(reg["A3"].build(10)).kind == COMPOSITE


def test_classify_digon_ring():
    g = Graph.from_edges(
        6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 1), (2, 5), (5, 3)]
    )
    cls = classify_graph(g)
    assert cls.kind == DIGON_RING
    assert cls.path_parameters == (1, 1, 1, 1, 2, 2)


def test_classify_isomorphism_invariant():
    rng = random.Random(3)
    g = with_pendants(builtin_registry()["H1"].build(9), {2: 1})
    for _ in range(10):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert classify_graph(relabel(g, perm)) == classify_graph(g)


def _bipartition_cyclomatics(brace):
    """Cyclomatic numbers of the two sides when split at some cut vertex."""
    from mostar.graphs import is_connected

    for v in _cut_vertices(brace):
        rest = [w for w in range(brace.n) if w != v]
        comp_of = {}
        sub = induced(brace, rest)
        seen = set()
        comps = []
        for w in range(sub.n):
            if w in seen:
                continue
            stack, comp = [w], set()
            while stack:
                x = stack.pop()
                if x in comp:
                    continue
                comp.add(x)
                stack.extend(neighbors(sub, x))
            seen |= comp
            comps.append([rest[i] for i in comp])
        for take in range(1, len(comps)):
            import itertools

            for combo in itertools.combinations(range(len(comps)), take):
                side1 = sorted(
                    [v] + [x for i in combo for x in comps[i]]
                )
                side2 = sorted(
                    [v] + [x for i in range(len(comps)) if i not in combo
                           for x in comps[i]]
                )
                g1 = induced(brace, side1)
                g2 = induced(brace, side2)
                if is_connected(g1) and is_connected(g2):
                    c1 = cyclomatic_number(g1)
                    c2 = cyclomatic_number(g2)
                    if {c1, c2} == {1, 2}:
                        return True
    return False


def test_exhaustive_partition_small_sizes(tri_surveys=None):
    """Every tricyclic graph lands in exactly one of the five buckets, and
    composite braces split into a bicyclic and a unicyclic part."""
    for m in (7, 8, 9):
        kinds = set()
        for g in enumerate_connected(EnumerationTask(m - 2, m)):
            cls = classify_graph(g)
            assert cls.kind in (
                K4_SUBDIVISION, THREE_HUB, FOUR_THETA, DIGON_RING, COMPOSITE
            )
            kinds.add(cls.kind)
            if cls.kind == COMPOSITE:
                assert _bipartition_cyclomatics(strip_pendants(g).brace)
    assert COMPOSITE in kinds


def test_trees_to_stars_never_lowers_index():
    """Trees to stars: replacing every tree hung at a brace vertex by as
    many pendant edges at that vertex never lowers the edge Mostar index,
    and raises it exactly when some stripped vertex is not a leaf (proof
    in the `mostar.indices` docstring).  Checked on all 2,694 tricyclic
    graphs with 7..11 edges, 759 of which have such a vertex."""
    checked = raised = 0
    for m in range(7, 12):
        for g in enumerate_connected(tricyclic_task(m)):
            d = strip_pendants(g)
            stars = with_pendants(d.brace, d.attachment_profile)
            before, after = edge_mostar(g), edge_mostar(stars)
            stripped = set(range(g.n)) - set(d.original_labels)
            deep = any(g.degree(v) > 1 for v in stripped)
            assert after >= before and (after > before) == deep, g.edges()
            checked += 1
            raised += deep
    assert checked == 2694 and raised == 759


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_classify_total_on_random_connected(seed):
    rng = random.Random(seed)
    g = random_connected(rng, 3, 9)
    cls = classify_graph(g)
    if cyclomatic_number(g) != 3:
        assert cls.kind == NOT_TRICYCLIC
    else:
        assert cls.kind in (
            K4_SUBDIVISION, THREE_HUB, FOUR_THETA, DIGON_RING, COMPOSITE
        )


def test_cut_vertices_match_brute_force():
    """Connected graphs from trees to near-complete ones, n <= 14, some with
    random trees hung on: the masked-reachability rule finds exactly the
    vertices whose deletion disconnects the graph."""
    rng = random.Random(41)
    with_cut = 0
    for i in range(600):
        g = random_connected_density(rng, 1, 14 if i % 2 else 9)
        if i % 2 == 0:
            g = hang_random_trees(rng, g, rng.randint(0, 14 - g.n))
        expected = brute_cut_vertices(g)
        assert _cut_vertices(g) == expected, g.edges()
        with_cut += bool(expected)
    assert 100 < with_cut < 600  # both outcomes are well represented


def test_strip_pendants_matches_leaf_peeling():
    """Graphs with at least one cycle plus random hung trees, n <= 14: the
    brace, its labels and the per-vertex tree sizes equal one-leaf-at-a-time
    peeling over dicts."""
    rng = random.Random(43)
    checked = 0
    while checked < 600:
        g = random_connected_density(rng, 3, 10)
        if g.m < g.n:
            continue  # a tree has no brace
        g = hang_random_trees(rng, g, rng.randint(0, 14 - g.n))
        keep, carried = brute_strip_pendants(g)
        d = strip_pendants(g)
        assert list(d.original_labels) == keep
        assert d.brace == induced(g, keep)
        assert d.attachment_profile == {i: carried[v] for i, v in enumerate(keep)}
        assert d.pendant_count == sum(carried.values())
        checked += 1


# braces per size: tricyclic with 6..14 edges, bicyclic with 5..13
KERNEL_BRACE_COUNTS = {
    3: dict(zip(range(6, 15), [1, 3, 11, 31, 71, 144, 274, 474, 787])),
    2: dict(zip(range(5, 14), [1, 3, 5, 8, 12, 16, 21, 27, 33])),
}


@pytest.mark.parametrize("c", [2, 3])
def test_kernel_brace_counts(c):
    """The braces grown from kernels number the known counts at every
    size; none has fewer edges than the smallest (K4 less an edge, K4),
    and each is a connected graph of minimum degree 2 with cyclomatic
    number c.  The largest size lists in under a second."""
    counts = KERNEL_BRACE_COUNTS[c]
    found = kernel_braces(c, range(max(counts) + 1))
    assert {b: len(v) for b, v in found.items() if v} == counts
    for b, braces in found.items():
        for g, _, _ in braces:
            assert g.m == b and cyclomatic_number(g) == c
            assert all(g.degree(v) >= 2 for v in range(g.n))
    t0 = time.perf_counter()
    kernel_braces(c, [max(counts)])
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("c", [2, 3])
def test_kernel_table_equals_enumeration(c):
    """The tabled kernels are, in order, the ones the brute-force
    enumeration finds: 3 bicyclic and 15 tricyclic."""
    assert _KERNELS[c] == tuple(enumerate_kernels(c))
    assert len(_KERNELS[c]) == {2: 3, 3: 15}[c]


def _brace_rows(found):
    return {b: [(g.n, g.adj, group, cls) for g, group, cls in v] for b, v in found.items()}


@functools.lru_cache(maxsize=None)
def _reference_rows(c, top):
    return _brace_rows(reference_kernel_braces(c, range(top + 1)))


@pytest.mark.parametrize("c, top, classes", [
    pytest.param(c, top, classes, id="-".join(filter(None, (str(c), str(top), name))))
    for c, top in ((3, 14), (2, 16)) for name, classes in brace_class_filters().items()])
def test_kernel_braces_equal_composition_walk(monkeypatch, c, top, classes):
    """The walk over the tuples nondecreasing inside each parallel class,
    with each automorphism built as pi and the image paths in edge order,
    lists what the walk over every composition with each automorphism
    assigned vertex by vertex lists (`_helpers.reference_kernel_braces`):
    the same braces in the same order, each with the same adjacency,
    group (in order) and class, up to tricyclic 14 and bicyclic 16 edges
    (`tests/deep.py` `kernel_walk` goes on to 22 and 30).  Given
    `classes` (`_helpers.brace_class_filters`), it lists the oracle's
    braces of those classes, in the same order, builds no other, and
    walks a kernel only at a size where a class of its kind can lie."""
    real_walk, real_build, walked, built = braces._orbit_walk, braces._subdivide, [], []

    def walk(order, edges, b):
        walked.append((classify(order, edges).kind, b))
        return real_walk(order, edges, b)

    def build(*args):
        built.append(real_build(*args))
        return built[-1]

    monkeypatch.setattr(braces, "_orbit_walk", walk)
    monkeypatch.setattr(braces, "_subdivide", build)
    got = _brace_rows(kernel_braces(c, range(top + 1), classes))
    assert got == {b: [row for row in rows if classes is None or row[3] in classes]
                   for b, rows in _reference_rows(c, top).items()}
    assert len(built) == sum(map(len, got.values()))
    if classes is not None:
        assert all(any(k.kind == kind and (k.path_parameters is None or sum(k.path_parameters) == b)
                       for k in classes)
                   for kind, b in walked)
    if classes == brace_class_filters()["absent"]:
        assert not built


@pytest.mark.parametrize("c", [0, 1, 4])
def test_kernel_braces_reject_untabled_classes(c):
    with pytest.raises(ValueError, match="cyclomatic number 2 and 3"):
        kernel_braces(c, [8])


def _burnside_brace_count(c: int, b: int) -> int:
    """The braces with cyclomatic number c and b edges, up to isomorphism,
    by Burnside's lemma per kernel: the average over the kernel's edge
    maps of the length tuples summing to b that sigma fixes, every loop
    of length >= 3 and no parallel class with two edges of length 1."""
    total = 0
    for order, edges in _KERNELS[c]:
        loops = {i for i, (x, y) in enumerate(edges) if x == y}
        twins = [(i, j) for j in range(len(edges)) for i in range(j) if edges[i] == edges[j]]
        maps = _edge_maps(order, edges)
        fixed = 0
        for _, sigma in maps:
            cycles, seen = [], set()
            for i in range(len(edges)):
                if i not in seen:
                    cyc = [i]
                    while sigma[cyc[-1]] != i:
                        cyc.append(sigma[cyc[-1]])
                    seen.update(cyc)
                    cycles.append(cyc)
            lengths = [0] * len(edges)

            def fill(k: int, left: int) -> int:
                # tuples constant on each of sigma's cycles k, k+1, ...
                if k == len(cycles):
                    return left == 0 and not any(
                        lengths[i] == lengths[j] == 1 for i, j in twins)
                count = 0
                for value in range(3 if cycles[k][0] in loops else 1,
                                   left // len(cycles[k]) + 1):
                    for i in cycles[k]:
                        lengths[i] = value
                    count += fill(k + 1, left - value * len(cycles[k]))
                return count

            fixed += fill(0, b)
        assert fixed % len(maps) == 0, (order, edges, b)
        total += fixed // len(maps)
    return total


@pytest.mark.parametrize("c, top", [(3, 18), (2, 12)])
def test_kernel_brace_counts_burnside(c, top):
    """`kernel_braces` keeps the smallest tuple of each orbit; counting the
    orbits by Burnside's lemma instead gives the same number of braces at
    every size up to tricyclic 18 and bicyclic 12 edges, the sizes that
    can reach the bounds m^2-m-36 and m^2-m-24 (the `indices` deficit
    bound)."""
    found = kernel_braces(c, range(top + 1))
    assert [_burnside_brace_count(c, b) for b in range(top + 1)] == [
        len(found[b]) for b in range(top + 1)]
    assert sum(map(len, found.values())) == {3: 11683, 2: 93}[c]


def test_kernel_classes_equal_graph_classifier(tri_surveys, bi_surveys):
    """The class each brace carries from its kernel is the graph-level
    classifier's (pendants stripped, cut vertices searched, skeleton
    walked): on every tricyclic brace of 6..14 edges, kind and path
    parameters, and on every bicyclic one up to 14 edges, NOT_TRICYCLIC.
    The atlas surveys (tricyclic 7..12, bicyclic 5..10) carry the same
    class for each maximizer's brace."""
    tri = [(g, cls) for found in kernel_braces(3, range(15)).values() for g, _, cls in found]
    bi = [(g, cls) for found in kernel_braces(2, range(15)).values() for g, _, cls in found]
    assert (len(tri), len(bi)) == (1796, 166)
    for g, cls in tri:
        assert cls == classify_graph(g), g.edges()
    assert {cls.kind for _, cls in tri} == {
        K4_SUBDIVISION, THREE_HUB, FOUR_THETA, DIGON_RING, COMPOSITE}
    assert all(cls == classify_graph(g) == BraceClass(NOT_TRICYCLIC) for g, cls in bi)
    checked = 0
    for surveys in (tri_surveys, bi_surveys):
        for m, s in surveys.items():
            assert len(s.maximizer_classes) == len(s.result.maximizers), m
            for g6, cls in zip(s.result.maximizers, s.maximizer_classes):
                assert cls == classify_graph(parse_graph6(g6)), (m, g6)
                checked += 1
    assert checked == 30


def _closure(n, generators):
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        frontier = [q for p in frontier for gen in generators
                    for q in [tuple(gen[x] for x in p)] if q not in group]
        group.update(frontier)
    return group


@pytest.mark.parametrize("c, top", [(3, 12), (2, 10)])
def test_kernel_braces_match_walk(c, top):
    """Up to tricyclic 12 and bicyclic 10 edges, the kernel braces are,
    up to isomorphism, exactly the minimum-degree-2 graphs of the
    edge-augmentation walk, each once; and the automorphisms listed with
    each are the group `reference_canon`'s generators generate, the
    identity first, with no repeats."""
    found = kernel_braces(c, range(top + 1))
    for b in range(c + 3, top + 1):
        task = tricyclic_task(b) if c == 3 else bicyclic_task(b)
        walk = sorted(canonical_form(g) for g in enumerate_connected(task)
                      if all(g.degree(v) >= 2 for v in range(g.n)))
        assert sorted(canonical_form(g) for g, _, _ in found[b]) == walk, b
        for g, group, _ in found[b]:
            assert group[0] == tuple(range(g.n)) and len(set(group)) == len(group)
            assert set(group) == _closure(g.n, reference_canon(g).generators), g.edges()
