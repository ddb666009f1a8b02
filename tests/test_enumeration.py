import json
import sys
from collections import Counter
from dataclasses import astuple

import pytest

from mostar import (
    Graph,
    canon,
    canonical_form,
    edge_mostar,
    enumeration,
)
from mostar.braces import kernel_braces
from mostar.canon import pair_orbit_reps
from mostar.families import builtin_registry, member_form
from mostar.graphs import edge_pairs, parse_graph6
from mostar.indices import model_tails, pendant_model
from mostar.enumeration import (
    EnumerationTask,
    bicyclic_task,
    survey,
    tricyclic_task,
)
import _walk
from _walk import enumerate_connected, trees
from _helpers import (
    _compositions,
    _grow,
    _hang_trees,
    _rooted_trees,
    _tree_scores,
    _values,
    attach_key,
    brute_connected_class_count,
    burnside_class_totals,
    check_model_scores,
    classify_graph,
    complete,
    composition_listing,
    face_walk,
    naive_distances,
    maximize,
    orbit_tails,
    polya_class_count,
    reference_accept_edge_child,
    single_attach_decomposition,
    tarjan_bridges,
    toggle_edge,
)


def _class_count(task):
    return sum(1 for _ in enumerate_connected(task))


def test_tree_counts():
    expected = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}
    for n, count in expected.items():
        assert sum(1 for _ in trees(n)) == count


def test_complete_graph_unique():
    got = list(enumerate_connected(EnumerationTask(4, 6)))
    assert len(got) == 1
    assert canonical_form(got[0]) == canonical_form(complete(4))


def test_k4_minus_edge_unique():
    got = list(enumerate_connected(EnumerationTask(4, 5)))
    assert len(got) == 1
    k4_minus = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert canonical_form(got[0]) == canonical_form(k4_minus)


def test_counts_match_brute_force_small():
    """The walk against the labelled brute-force oracle: every connected
    (n, m) class with n <= 6, and (7, 9)."""
    for n in range(2, 7):
        for m in range(n - 1, n * (n - 1) // 2 + 1):
            assert _class_count(EnumerationTask(n, m)) == brute_connected_class_count(n, m), (n, m)
    assert _class_count(EnumerationTask(7, 9)) == brute_connected_class_count(7, 9) == 107


def test_class_count_n7_total():
    # connected graphs on 7 vertices: OEIS A001349
    assert sum(_class_count(EnumerationTask(7, m)) for m in range(6, 22)) == 853


def test_class_counts_n8():
    # connected graphs on 8 vertices by edge count: OEIS A054924, row 8
    expected = {7: 23, 8: 89, 9: 236, 10: 486, 11: 814, 12: 1169}
    for m, count in expected.items():
        assert _class_count(EnumerationTask(8, m)) == count, m


def _walk_small_sizes():
    """The walks for tricyclic m <= 10 and bicyclic m <= 9."""
    for m in range(6, 11):
        _class_count(tricyclic_task(m))
    for m in range(5, 10):
        _class_count(bicyclic_task(m))


def _nonedges(n, adj):
    return [(u, v) for u in range(n) for v in range(u + 1, n) if not adj[u] >> v & 1]


def test_acceptance_matches_reference_rule(monkeypatch):
    """Every non-edge of every parent in the tricyclic m <= 10 and bicyclic
    m <= 9 walks is judged as the full-Tarjan reference rule judges it: a
    non-edge the parent-side scan drops is one the reference rejects, the
    pair ties of a survivor are the child's non-bridge edges with its
    degree pair, a child accepted unlabelled is one the reference accepts,
    and every labelled decision equals the reference's, canon data
    included."""
    fast_candidates = _walk._candidates
    fast_accept = _walk._accept_edge_child
    seen = Counter()

    def checked_candidates(n, adj, sides):
        live = fast_candidates(n, adj, sides)
        nonedges = _nonedges(n, adj)
        for u, v in nonedges:
            child = toggle_edge(adj, u, v)
            if (u, v) not in live:
                assert reference_accept_edge_child(n, child, u, v) is None, (adj, u, v)
                continue
            deg = [row.bit_count() for row in child]
            bridges = tarjan_bridges(n, child)
            want = sorted(
                (x, y) for x, y in edge_pairs(child)
                if (x, y) not in bridges and (x, y) != (u, v)
                and sorted((deg[x], deg[y])) == sorted((deg[u], deg[v]))
            )
            assert sorted(live[u, v]) == want, (adj, u, v)
        # the children the old walk built: one per orbit of all non-edges
        reps = set(pair_orbit_reps(n, canon(Graph(n, adj)).generators, nonedges).values())
        seen["dropped"] += len(reps - set(live))
        return live

    def checked_accept(n, child, a, b, pair_ties, label):
        accepted, cres = fast_accept(n, child, a, b, pair_ties, label)
        ref = reference_accept_edge_child(n, child, a, b)
        if accepted and cres is None:
            assert not label and ref is not None, (child, a, b)
            seen["unlabelled"] += 1
        else:
            assert cres == ref and accepted == (ref is not None), (child, a, b)
            seen[accepted] += 1
        return accepted, cres

    monkeypatch.setattr(_walk, "_candidates", checked_candidates)
    monkeypatch.setattr(_walk, "_accept_edge_child", checked_accept)
    _walk_small_sizes()
    assert all(seen[k] > 0 for k in ("dropped", "unlabelled", True, False))
    # every child of the generation forest at these sizes was judged
    assert sum(seen.values()) == 7167


def test_orbits_over_survivors(monkeypatch):
    """For every parent of the tricyclic m <= 10 and bicyclic m <= 9 walks,
    the non-edges that survive the parent-side scan are a union of orbits,
    so their orbit representatives are those of all non-edges that
    survive, in the same order."""
    fast_candidates = _walk._candidates
    seen = Counter()

    def checked_candidates(n, adj, sides):
        live = fast_candidates(n, adj, sides)
        gens = canon(Graph(n, adj)).generators
        for gen in gens:
            assert {tuple(sorted((gen[u], gen[v]))) for u, v in live} == set(live), adj
        every = sorted(set(pair_orbit_reps(n, gens, _nonedges(n, adj)).values()))
        got = sorted(set(pair_orbit_reps(n, gens, list(live)).values()))
        assert got == [p for p in every if p in live], adj
        seen["parents"] += 1
        return live

    monkeypatch.setattr(_walk, "_candidates", checked_candidates)
    _walk_small_sizes()
    assert seen == {"parents": 702}


def test_bridge_sides_match_tarjan(monkeypatch):
    """For every parent of the tricyclic m <= 10 and bicyclic m <= 9 walks,
    the bridge sides it hands to the parent-side scan, computed on the tree
    seeds and inherited below them, equal Tarjan's bridges and a dict-BFS
    reach."""
    fast_candidates = _walk._candidates
    seen = Counter()

    def checked_candidates(n, adj, sides):
        assert set(sides) == tarjan_bridges(n, adj), adj
        for (x, y), side in sides.items():
            reach = naive_distances(Graph(n, toggle_edge(adj, x, y)), x)
            assert side == sum(1 << v for v in reach), (adj, x, y)
        seen["parents"] += 1
        return fast_candidates(n, adj, sides)

    monkeypatch.setattr(_walk, "_candidates", checked_candidates)
    _walk_small_sizes()
    assert seen == {"parents": 702}


def _naive_fold(task):
    """Survey outputs from a fold that labels every graph it visits."""
    best, argmax, count, braces = None, [], 0, []
    for g in enumerate_connected(task):
        count += 1
        value, form = edge_mostar(g), canonical_form(g)
        if best is None or value > best:
            best, argmax = value, []
        if value == best:
            argmax.append(form)
        if all(g.degree(v) >= 2 for v in range(g.n)):
            braces.append(form)
    return count, best, tuple(sorted(argmax)), tuple(sorted(braces))


def _brace_forms(task):
    """The canonical forms of the kernel braces with all of the task's
    edges, sorted, with any repeat kept, so a duplicated or missing brace
    shows."""
    found = kernel_braces(task.m - task.n + 1, [task.m])[task.m]
    return tuple(sorted(canonical_form(g) for g, _, _ in found))


# braces per size: tricyclic with 6..10 edges, bicyclic with 5..9
BRACE_COUNTS = {"tri": [1, 3, 11, 31, 71], "bi": [1, 3, 5, 8, 12]}


@pytest.mark.parametrize("task", [
    *(pytest.param(tricyclic_task(m), id=f"tri{m}") for m in range(6, 11)),
    *(pytest.param(bicyclic_task(m), id=f"bi{m}") for m in range(5, 10)),
])
def test_survey_matches_labelling_fold(task):
    """The survey fold labels a graph only when it can be kept; its outputs
    equal those of a fold that labels everything, and the kernel braces of
    the task's size are that fold's braces.  The brace counts are the
    known ones."""
    want = _naive_fold(task)
    kind, first = ("tri", 6) if task.m - task.n == 2 else ("bi", 5)
    assert len(want[3]) == BRACE_COUNTS[kind][task.m - first]
    assert _brace_forms(task) == want[3]
    for workers in (1, 2):
        s = survey([task], workers=workers)[task]
        got = (s.result.graphs_visited, s.result.max_value, s.result.maximizers)
        assert got == want[:3], workers


def test_connected_class_totals():
    """Connected graphs with m = 0..8 edges, summed over n: the published
    totals (OEIS A002905)."""
    totals = [sum(len(list(enumerate_connected(EnumerationTask(n, m))))
                  for n in range(1, m + 2))
              for m in range(9)]
    assert totals == [1, 1, 1, 3, 5, 12, 30, 79, 227]


def test_survey_strings_are_canonical(tri_surveys, bi_surveys):
    """Every maximizer string of the tricyclic 7..12 and bicyclic 5..10
    surveys is its own `canonical_form`: discovery and the verification
    rows identify a family member by looking its canonical form up among
    these strings.  No two kernel braces of a surveyed size are
    isomorphic."""
    checked = 0
    for surveys in (tri_surveys, bi_surveys):
        for m, s in sorted(surveys.items()):
            for g6 in s.result.maximizers:
                assert canonical_form(parse_graph6(g6)) == g6, (m, g6)
                checked += 1
            forms = _brace_forms(s.result.task)
            assert len(set(forms)) == len(forms), m
    assert checked > 0


def test_no_duplicates_at_tricyclic_7():
    forms = [canonical_form(g) for g in enumerate_connected(EnumerationTask(7, 9))]
    assert len(forms) == len(set(forms)) == 107


def test_empty_and_infeasible_classes():
    res = maximize(tricyclic_task(5))  # would need 3 vertices with 5 edges
    assert res.graphs_visited == 0
    assert res.max_value is None and res.maximizers == ()


def test_maximize_seventeen_vertices():
    """No order bound: bicyclic m = 18 on 17 vertices reads m^2-m-24 with
    the one maximizer B0's size-18 member."""
    res = maximize(EnumerationTask(17, 18))
    assert res.max_value == 18 * 18 - 18 - 24 == 282
    assert res.maximizers == (member_form(builtin_registry()["B0"], 18, order=17),)


def test_negative_task_rejected():
    with pytest.raises(ValueError, match="order and size must be nonnegative"):
        EnumerationTask(-1, 3).validate()


def test_maximize_small_tricyclic():
    res = maximize(tricyclic_task(7))
    assert res.max_value == 12
    assert len(res.maximizers) == 2
    assert res.graphs_visited == 4
    res6 = maximize(tricyclic_task(6))
    assert res6.max_value == 0 and res6.graphs_visited == 1


def test_bicyclic_m5():
    res = maximize(bicyclic_task(5))
    assert res.max_value == 4 and res.graphs_visited == 1


def test_worker_independence_bytes():
    blobs = []
    for workers in (1, 2, 8):
        res = maximize(tricyclic_task(8), workers=workers)
        blobs.append(json.dumps(res.to_dict(), sort_keys=True).encode())
    assert blobs[0] == blobs[1] == blobs[2]


def test_survey_braces_tricyclic_8():
    task = tricyclic_task(8)
    found = kernel_braces(3, [8])[8]
    assert _brace_forms(task) == _naive_fold(task)[3]
    assert len(found) == 11
    assert "COMPOSITE" in {classify_graph(g).kind for g, _, _ in found}
    for workers in (1, 2):
        assert survey([task], workers=workers)[task].result.max_value == 23


# the atlas's surveys up to tricyclic 11: five tricyclic and six bicyclic
# sizes over the vertex counts 4..9
ATLAS_TASKS = [*(tricyclic_task(m) for m in range(7, 12)),
               *(bicyclic_task(m) for m in range(5, 11))]


def _survey_blob(s):
    classes = [astuple(cls) for cls in s.maximizer_classes]
    decs = [dec and (dec[0].adj, dec[1]) for dec in s.maximizer_braces]
    return json.dumps([s.result.to_dict(), classes, decs], sort_keys=True)


@pytest.fixture(scope="module")
def single_surveys():
    return {task: survey([task])[task] for task in ATLAS_TASKS}


@pytest.fixture(scope="module")
def multi_surveys():
    return {w: survey(ATLAS_TASKS, workers=w) for w in (1, 2)}


@pytest.mark.parametrize("workers", [1, 2])
def test_multi_task_survey_matches_single_tasks(single_surveys, multi_surveys, workers):
    """One call over many tasks, several sharing a vertex count, gives each
    task exactly its single-task survey: result, classes and maximizer
    braces."""
    got = multi_surveys[workers]
    assert list(got) == ATLAS_TASKS
    for task in ATLAS_TASKS:
        assert _survey_blob(got[task]) == _survey_blob(single_surveys[task]), task


def test_survey_labels_only_maximizers(monkeypatch):
    """A survey labels the graphs at each task's best and nothing else: over
    the atlas tasks, one `canon` call per maximizer, none per brace."""
    calls = Counter()

    def counting_canon(g):
        calls["canon"] += 1
        return canon(g)

    # every module of the package that holds the function, however imported
    for name, module in list(sys.modules.items()):
        if name.startswith("mostar") and getattr(module, "canon", None) is canon:
            monkeypatch.setattr(module, "canon", counting_canon)
    got = survey(ATLAS_TASKS, workers=1)
    assert calls["canon"] == sum(len(s.result.maximizers) for s in got.values())


def test_multi_task_survey_class_totals(multi_surveys):
    """Published class totals (connected bicyclic and tricyclic graphs by
    size) from one call."""
    got = multi_surveys[2]
    assert [got[bicyclic_task(m)].result.graphs_visited for m in range(5, 11)] == \
        [1, 5, 19, 67, 236, 797]
    assert [got[tricyclic_task(m)].result.graphs_visited for m in range(7, 12)] == \
        [4, 22, 107, 486, 2075]


def test_multi_task_survey_order_and_repeats():
    """Neither the order of the task list nor a repeated task changes any
    survey; a repeated task is one key."""
    tasks = [tricyclic_task(m) for m in range(7, 10)] + [bicyclic_task(m) for m in range(5, 9)]
    want = survey(tasks)
    for shuffled in (tasks[::-1], tasks[1::2] + tasks[::2] + tasks[:3]):
        for workers in (1, 2):
            got = survey(shuffled, workers=workers)
            assert set(got) == set(tasks)
            assert all(_survey_blob(got[t]) == _survey_blob(want[t]) for t in tasks)


def _no_pool(*args):
    raise AssertionError("a pool was started, or work began")


def test_multi_task_survey_edge_cases():
    assert survey([]) == {}
    # an infeasible task (3 vertices, 5 edges) beside a feasible one
    got = survey([tricyclic_task(5), tricyclic_task(7)], workers=2)
    assert got[tricyclic_task(5)].result.graphs_visited == 0
    assert got[tricyclic_task(5)].result.max_value is None
    assert got[tricyclic_task(7)].result.graphs_visited == 4


@pytest.mark.parametrize("task", [
    pytest.param(EnumerationTask(9, 9), id="unicyclic"),
    pytest.param(EnumerationTask(3, 0), id="edgeless"),
    pytest.param(EnumerationTask(6, 5), id="tree"),
])
def test_tasks_not_bicyclic_or_tricyclic_rejected(monkeypatch, task):
    """`survey` and `maximize` build bicyclic and tricyclic classes only:
    any other task raises ValueError, alone or beside a tricyclic one and
    with any worker count, before a brace is listed or a pool starts."""
    monkeypatch.setattr(enumeration, "get_context", _no_pool)
    monkeypatch.setattr(enumeration, "kernel_braces", _no_pool)
    match = "bicyclic and tricyclic"
    for workers in (1, 2):
        for tasks in ([task], [tricyclic_task(7), task], [task, tricyclic_task(7)]):
            with pytest.raises(ValueError, match=match):
                survey(tasks, workers=workers)
        with pytest.raises(ValueError, match=match):
            maximize(task, workers=workers)


def test_tasks_too_small_for_any_brace():
    """No tricyclic brace has fewer than 6 edges and no bicyclic one fewer
    than 5, so these tasks read no graph and no maximum: alone, together
    and beside tasks that have graphs, with 1 and 2 workers."""
    small = [*(tricyclic_task(m) for m in range(2, 6)),
             *(bicyclic_task(m) for m in range(2, 5))]
    empty = (0, None, (), ())
    for workers in (1, 2):
        for task in small:
            s = survey([task], workers=workers)[task]
            assert (s.result.graphs_visited, s.result.max_value,
                    s.result.maximizers, _brace_forms(task)) == empty, task
        got = survey([*small, tricyclic_task(7), bicyclic_task(6)], workers=workers)
        for task in small:
            s = got[task]
            assert (s.result.graphs_visited, s.result.max_value,
                    s.result.maximizers, _brace_forms(task)) == empty, (task, workers)
        assert got[tricyclic_task(7)].result.graphs_visited == 4
        assert got[bicyclic_task(6)].result.graphs_visited == 5


def _brace_first_forms(task):
    """The canonical forms of the classes `survey` builds for a bicyclic
    or tricyclic task: every kernel brace with at most m edges, with the
    classes the pick listing `_hang_trees` grows on it."""
    c = task.m - task.n + 1
    trees = _rooted_trees(task.m)
    return [
        canonical_form(Graph(task.n, _grow(brace.adj, trees, comp, support, pick)))
        for b, found in kernel_braces(c, range(task.m + 1)).items()
        for brace, auts, _ in found
        for comp, support, picks in _hang_trees(brace.n, auts, trees, task.m - b)
        for pick in picks
    ]


@pytest.mark.parametrize("task", [pytest.param(t, id=f"{t.n}-{t.m}") for t in ATLAS_TASKS])
def test_brace_first_classes_equal_walk(task):
    """Two generators, one class set: on every atlas task the graphs grown
    from kernel braces and the edge-augmentation walk's graphs have the
    same canonical forms, and neither repeats a class."""
    walk = [canonical_form(g) for g in enumerate_connected(task)]
    mine = _brace_first_forms(task)
    assert len(set(mine)) == len(mine) == len(walk)
    assert set(mine) == set(walk)


def test_rooted_trees():
    """The rooted-tree tables the pick listing hangs: every entry a tree
    with its number of edges, no two of one size isomorphic (up to 9
    edges); and the survey's counts, OEIS A000081 by its recurrence, are
    the sizes of the listing up to 12 edges."""
    assert [len(level) for level in _rooted_trees(12)] == enumeration._rooted_tree_counts(12)
    trees = _rooted_trees(9)
    for k, level in enumerate(trees):
        forms = set()
        for parents in level:
            assert len(parents) == k and all(p <= i for i, p in enumerate(parents))
            # a triangle on the root, the one cycle, keeps the root fixed
            g = Graph.from_edges(k + 3, [(p, i + 1) for i, p in enumerate(parents)]
                                 + [(0, k + 1), (0, k + 2), (k + 1, k + 2)])
            forms.add(canonical_form(g))
        assert len(forms) == len(level)


def test_maximizer_braces_equal_leaf_peeling(tri_surveys, bi_surveys):
    """The brace and attachment vertex the survey carries for each maximizer
    are, up to an isomorphism of the braces, what peeling its leaves gives
    (the `_helpers` oracle): on all 31 maximizers of tricyclic 6..12 and
    bicyclic 4..10, 20 of them a brace plus bare pendant edges at one
    vertex and 11 not.  The pick listing's star test (`check_model_scores`
    and `test_compositions_count_picks_and_star_is_best`) relies on the
    star, every edge at the root, being the last rooted tree of each size."""
    small = survey([tricyclic_task(6), bicyclic_task(4)])
    surveys = [*tri_surveys.values(), *bi_surveys.values(), *small.values()]
    counts = Counter()
    for s in surveys:
        assert len(s.maximizer_braces) == len(s.result.maximizers)
        for g6, dec in zip(s.result.maximizers, s.maximizer_braces):
            want = single_attach_decomposition(parse_graph6(g6))
            assert attach_key(dec) == attach_key(want), g6
            counts[dec is None] += 1
    assert counts == {False: 20, True: 11}
    for k, level in enumerate(_rooted_trees(12)):
        assert level[-1] == (0,) * k


def _polya(c, m):
    found = kernel_braces(c, range(m + 1))
    return polya_class_count(m, [(b, auts) for b, braces in found.items()
                                 for _, auts, _ in braces])


def test_polya_count_equals_graphs_visited(tri_surveys, bi_surveys):
    """Braces times trees account for every class: Polya's count over the
    kernel braces and their automorphism groups, and the Burnside count
    over the kernels' own automorphisms, which reads no brace group, each
    equal the survey's `graphs_visited` at tricyclic 7..12 and bicyclic
    5..10, and give the class totals of the sizes past them that CI and
    the walk recorded (tricyclic 13 and 14, bicyclic 11..13).  CI compares
    the Burnside count with the survey up to the top sizes
    (`tests/deep.py` `class_totals`)."""
    burnside = {3: burnside_class_totals(3, 14), 2: burnside_class_totals(2, 13)}
    for c, surveys in ((3, tri_surveys), (2, bi_surveys)):
        for m, s in surveys.items():
            assert _polya(c, m) == burnside[c][m] == s.result.graphs_visited, (c, m)
    assert [_polya(3, m) for m in (13, 14)] == burnside[3][13:] == [33851, 130365]
    assert [_polya(2, m) for m in (11, 12, 13)] == burnside[2][11:] == [2678, 8833, 28908]


def test_model_scores_equal_edge_mostar():
    """The pick listing scores each class off its brace's pendant model,
    with no graph built: on every class of tricyclic 6..11 and bicyclic
    5..10, on every pick, that score equals `edge_mostar` of the built
    graph, and the survey's pass over each brace, driven with every one of
    those sizes at once, keeps for each its class count and the rows of
    exactly its best picks (CI runs tricyclic up to 13 and bicyclic up to
    12)."""
    assert check_model_scores(3, 11) == {6: 1, 7: 4, 8: 22, 9: 107, 10: 486, 11: 2075}
    assert check_model_scores(2, 10) == {5: 1, 6: 5, 7: 19, 8: 67, 9: 236, 10: 797}


def test_one_unit_per_class_and_size(monkeypatch):
    """Each work unit lists the braces of one size, each class only up to
    its own largest task, not the largest of any class, and each brace's
    pendant model is computed once however many tasks share the brace:
    tricyclic braces with 6..9 edges number 1 + 3 + 11 + 31, bicyclic
    ones with 5..8 edges 1 + 3 + 5 + 8."""
    asked, models = [], []

    def recording_braces(c, sizes):
        asked.append((c, list(sizes)))
        return kernel_braces(c, asked[-1][1])

    def recording_model(adj):
        models.append(adj)
        return pendant_model(adj)

    monkeypatch.setattr(enumeration, "kernel_braces", recording_braces)
    monkeypatch.setattr(enumeration, "pendant_model", recording_model)
    tasks = [*(tricyclic_task(m) for m in range(7, 10)),
             *(bicyclic_task(m) for m in range(6, 9))]
    got = survey(tasks)
    assert all(len(sizes) == 1 for _, sizes in asked)
    assert sorted((c, b) for c, (b,) in asked) == [(c, b) for c in (2, 3)
                                                   for b in range({2: 9, 3: 10}[c])]
    assert len(models) == len(set(models)) == 46 + 17
    assert [got[t].result.graphs_visited for t in tasks] == [4, 22, 107, 5, 19, 67]


def test_survey_lists_no_brace_in_the_parent(monkeypatch):
    """A pooled survey lists every brace in its workers: the parent never
    calls `kernel_braces`.  On one worker, in this process, it is called
    once per work unit, one per class and brace size up to the class's
    largest task: 12 tricyclic (0..11) and 11 bicyclic (0..10) units on
    the atlas tasks."""
    calls = []

    def counting_braces(c, sizes):
        calls.append(c)
        return kernel_braces(c, sizes)

    monkeypatch.setattr(enumeration, "kernel_braces", counting_braces)
    survey(ATLAS_TASKS, workers=2)
    assert calls == []
    survey(ATLAS_TASKS, workers=1)
    assert Counter(calls) == {3: 12, 2: 11}


def test_survey_needs_no_inherited_state(monkeypatch):
    """Each work unit carries all its worker needs, so a pool whose workers
    start afresh ("spawn", which inherits no memory of the parent) gives
    the same surveys as one worker."""
    import multiprocessing

    monkeypatch.setattr(enumeration, "get_context",
                        lambda method: multiprocessing.get_context("spawn"))
    tasks = [tricyclic_task(8), bicyclic_task(7)]
    got, want = survey(tasks, workers=2), survey(tasks, workers=1)
    assert all(_survey_blob(got[t]) == _survey_blob(want[t]) for t in tasks)


def test_survey_tails_equal_pendant_tails():
    """On every kernel brace of the atlas sizes (tricyclic 7..12, bicyclic
    5..10), discovery reads one tail per orbit of the brace's group
    (`_helpers.orbit_tails` with the group), at the smallest vertex of each
    class of `canon(g).orbit_of`, and None at every other vertex; each tail
    is the (poly, holds_from) of the brace's `model_tails` record at that
    vertex."""
    checked = carried = 0
    for c, sizes in ((3, range(7, 13)), (2, range(5, 11))):
        for b, found in kernel_braces(c, sizes).items():
            for g, auts, _ in found:
                reps = set(canon(g).orbit_of)
                full = model_tails(pendant_model(g.adj))
                assert orbit_tails(g, auts) == tuple([full[v][:2] if v in reps else None
                                                      for v in range(g.n)]), (b, g.edges())
                checked += 1
                carried += len(reps)
    assert (checked, carried) == (579, 3693)  # of 5,247 vertices


def test_polya_count_per_brace():
    """Per brace, not only per size: at tricyclic m = 12 and bicyclic
    m = 10, the classes the pick listing `_hang_trees` grows on each kernel
    brace number Polya's count for that brace alone, so a defect that
    dropped classes on one brace and repeated them on another would show."""
    for c, m in ((3, 12), (2, 10)):
        trees = _rooted_trees(m)
        for b, found in kernel_braces(c, range(m + 1)).items():
            for brace, auts, _ in found:
                grown = _hang_trees(brace.n, auts, trees, m - b)
                assert (sum(len(picks) for _, _, picks in grown)
                        == polya_class_count(m, [(b, auts)])), brace.edges()


def test_compositions_count_picks_and_star_is_best():
    """The composition listing counts a composition's classes by Burnside
    over its stabiliser and scores only its all-star graph.  At tricyclic
    m = 12 and bicyclic m = 10, on every composition of every kernel brace,
    that count is the number of picks the pick listing keeps, and the
    all-star pick (the star, last of each size, at every support vertex) is
    the one pick at the listing's top value, as the strict trees-to-stars
    step in `indices` says; the survey's pass over the brace counts their
    sum.  The bicyclic braces' loop flips reach the stabilisers here, so a
    count that mis-walked their cycles would show."""
    for c, m in ((3, 12), (2, 10)):
        task = EnumerationTask(m - c + 1, m)
        trees = _rooted_trees(m)
        counts = enumeration._rooted_tree_counts(m)
        for b, found in kernel_braces(c, range(m + 1)).items():
            scores = _tree_scores(trees[:m - b + 1], m)
            for brace, auts, cls in found:
                model = pendant_model(brace.adj)
                listed = list(_hang_trees(brace.n, auts, trees, m - b))
                counted = list(_compositions(brace.n, auts, counts, m - b))
                assert [(comp, support) for comp, support, _ in counted] == \
                    [(comp, support) for comp, support, _ in listed], brace.edges()
                (count, _, _), = enumeration._survey_brace(brace.adj, auts, [(task, m - b)])
                assert count == sum(classes for _, _, classes in counted), brace.edges()
                for (comp, support, picks), (_, _, classes) in zip(listed, counted):
                    assert classes == len(picks), (brace.edges(), comp)
                    values = _values(model, scores, comp, support, picks)
                    star = tuple(len(trees[comp[v]]) - 1 for v in support)
                    top = max(values)
                    assert [p for p, x in zip(picks, values) if x == top] == [star], \
                        (brace.edges(), comp)


def test_face_walk_equals_composition_listing():
    """The survey's per-brace pass counts by the cycle index and lists its
    ties by the equality case of its Jensen step, scoring none; the
    composition listing counts and scores every composition.  On every
    kernel brace of both classes, for every size it serves up to tricyclic
    14 and bicyclic 13 (one pass per brace, all its sizes at once), the two
    give the same class count, the same best value and the same tie set,
    least in each orbit; each tie's all-star graph carries its brace's
    class and, when it has pendants at one vertex only, (brace, that
    vertex), as leaf peeling finds.  Ties of both kinds occur: 636 corners
    that tie with another composition on their brace, and 37 compositions
    with pendants at several vertices; the other 3,861 are a brace's lone
    best, its bare self or one corner."""
    shapes = Counter()
    for c, top in ((3, 14), (2, 13)):
        for b, found in kernel_braces(c, range(top + 1)).items():
            tasks = [EnumerationTask(m - c + 1, m) for m in range(b, top + 1)]
            for brace, auts, cls in found:
                got = enumeration._survey_brace(brace.adj, auts,
                                                [(t, t.m - b) for t in tasks])
                for task, (count, best, ties) in zip(tasks, got):
                    want = composition_listing(brace, auts, task.m)
                    assert (count, best, sorted(ties)) == (want[0], want[1], sorted(want[2])), \
                        (brace.edges(), task)
                    for comp in ties:
                        adj, kind, dec = enumeration._grow(brace.adj, cls, comp)
                        assert kind == cls
                        assert dec == single_attach_decomposition(Graph(len(adj), adj)), \
                            (brace.edges(), comp)
                        support = sum(1 for a in comp if a)
                        shapes[support > 1, len(ties) > 1] += 1
    assert shapes == {(False, False): 3861, (False, True): 636, (True, True): 37}, shapes


def test_tie_rule_equals_face_walk():
    """The survey's per-brace pass lists its ties by the equality case of
    its Jensen step and scores none; the face walk scores every
    composition on the face of the best corners.  On every kernel brace of
    both classes, for every size it serves up to tricyclic 16 and bicyclic
    20, the two give the same best value and the same tie set: 16,270 ties,
    128 of them with pendants at several vertices."""
    ties = Counter()
    for c, top in ((3, 16), (2, 20)):
        for b, found in kernel_braces(c, range(top + 1)).items():
            tasks = [EnumerationTask(m - c + 1, m) for m in range(b, top + 1)]
            for brace, auts, _ in found:
                got = enumeration._survey_brace(brace.adj, auts,
                                                [(t, t.m - b) for t in tasks])
                want = face_walk(brace, auts, [t.m for t in tasks])
                assert [(best, sorted(comps)) for _, best, comps in got] == \
                    [(best, sorted(comps)) for best, comps in want], brace.edges()
                ties.update(sum(1 for a in comp if a) > 1
                            for _, _, comps in got for comp in comps)
    assert ties == {False: 16142, True: 128}, ties


def test_pool_never_larger_than_unit_count(monkeypatch, capsys):
    """`--threads 64` on tricyclic size 7 (8 work units, one per brace size
    0..7) asks for a pool of 8.  The recording context runs
    the units in this process, and 64 cores are reported, so the CLI's own
    cap at the core count leaves the 64 as asked."""
    from mostar.cli import main

    requested = []

    class RecordingPool:
        def __init__(self, processes):
            requested.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, args, chunksize=1):
            return map(fn, args)

    class RecordingContext:
        Pool = RecordingPool

    monkeypatch.setattr(enumeration, "get_context", lambda method: RecordingContext())
    monkeypatch.setattr("mostar.cli._usable_cores", lambda: 64)
    assert main(["verify-theorem1", "--size", "7", "--threads", "64"]) == 0
    assert json.loads(capsys.readouterr().out)[0]["observed_max"] == 12
    assert requested == [8]
