import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from mostar import GraphError, canonical_form, cycle, is_connected
from mostar.braces import subdivision
from mostar.graphs import with_pendants
from _helpers import (
    ShiftSpec, cyclomatic_number, orbit_walk_role_assignments, reference_canon,
    reference_measured_delta, shift_pendants,
)
from mostar.shifts import (
    DISCREPANT,
    GROUPS,
    MATCH,
    PARAMS,
    SKIPPED,
    RULES,
    ShiftCheckRow,
    _role_assignments,
    _sample_params,
    calibrate,
    measured_delta,
    rule_ids,
    run_shift_suite,
    verify_lemma_shift,
)


def test_shift_zero_is_identity():
    g = with_pendants(cycle(3), {0: 2})
    assert shift_pendants(g, ShiftSpec(0, 1, 0)) == g


def test_shift_across_triangle_symmetry():
    # moving every pendant to an adjacent cycle vertex mirrors the graph
    g = with_pendants(cycle(3), {0: 3})
    h = shift_pendants(g, ShiftSpec(0, 1, 3))
    assert canonical_form(g) == canonical_form(h)


def test_shift_preserves_shape():
    g = with_pendants(cycle(4), {0: 3, 2: 1})
    h = shift_pendants(g, ShiftSpec(0, 2, 2))
    assert (h.n, h.m) == (g.n, g.m)
    assert is_connected(h)
    assert cyclomatic_number(h) == cyclomatic_number(g)
    assert h.degree(2) == g.degree(2) + 2


@pytest.mark.parametrize("gid", sorted(GROUPS))
def test_shift_keeps_braces_connected(gid):
    """`shift_pendants` does not re-test connectivity: every shift of a
    pendant-carrying rule brace stays connected, whether the target is a
    brace vertex or a leaf hanging elsewhere."""
    for brace in GROUPS[gid].realizations:
        for source in range(brace.n):
            for k in (1, 2, 5):
                g = with_pendants(with_pendants(brace, {source: k}), {(source + 1) % brace.n: 1})
                moved = range(brace.n, brace.n + k)  # the leaves at source
                for target in range(g.n):
                    if target == source or target in moved:
                        continue
                    for count in {1, k}:
                        h = shift_pendants(g, ShiftSpec(source, target, count))
                        assert (h.n, h.m) == (g.n, g.m)
                        assert is_connected(h), (gid, source, target, k, count)


@pytest.mark.parametrize("rule_id", rule_ids())
def test_measured_delta_matches_build_and_shift(rule_id):
    """Deltas from the pendant counts before and after a shift equal those
    of building the configuration and moving its pendant edges, on the
    rule's calibrated brace, over a grid of tuples."""
    rule = RULES[rule_id]
    cal = calibrate(rule.group)
    brace = cal.brace()
    for values in itertools.product((0, 1, 3), repeat=len(rule.live)):
        p = dict(zip(rule.live, values))
        assert measured_delta(brace, cal.roles, rule, p) == \
            reference_measured_delta(brace, cal.roles, rule, p), p


def test_shift_errors():
    g = with_pendants(cycle(3), {0: 1})
    with pytest.raises(GraphError):
        shift_pendants(g, ShiftSpec(0, 0, 1))
    with pytest.raises(GraphError):
        shift_pendants(g, ShiftSpec(0, 1, 2))  # only one pendant available
    with pytest.raises(GraphError):
        shift_pendants(g, ShiftSpec(1, 0, 1))  # vertex 1 has no pendants


def test_lemma_delta_values():
    def delta(rule_id, params):
        return RULES[rule_id].delta({"a1": 0, "a2": 0, "a3": 0, "a4": 0,
                                     "a5": 0, "a6": 0, **params})

    assert delta("L3.7a", {"a3": 1, "a4": 1, "a5": 1, "a6": 1}) == 8
    assert delta("L3.4a", {"a6": 0}) == 0
    assert delta("L3.3a", {"a1": 0, "a2": 4, "a3": 1, "a5": 1}) == 10
    with pytest.raises(GraphError):
        verify_lemma_shift("L9.9z", {})


def test_rule_table_complete():
    ids = rule_ids()
    assert len(ids) == 20
    by_group = {}
    for r in ids:
        by_group.setdefault(RULES[r].group, []).append(r)
    assert {g: len(v) for g, v in sorted(by_group.items())} == {
        "L3.2": 3, "L3.3": 4, "L3.4": 3, "L3.5": 3,
        "L3.6": 3, "L3.7": 2, "L3.8": 2,
    }


def test_verify_l37a_exact():
    row = verify_lemma_shift("L3.7a", {"a3": 2, "a4": 2, "a5": 2, "a6": 2})
    assert row.status == MATCH
    assert row.measured == row.expected == 24


def test_verify_boundary_skipped():
    # delta formula lands at zero on the side-condition boundary
    row = verify_lemma_shift("L3.2a", {"a1": 1, "a2": 1})
    assert row.status == SKIPPED and row.expected == 0
    # empty shift
    row = verify_lemma_shift("L3.8b", {"a3": 2})
    assert row.status == SKIPPED


def test_verify_rejects_condition_violations():
    with pytest.raises(GraphError):
        verify_lemma_shift("L3.2a", {"a2": 5, "a4": 5})  # a1+a3 < a2+a4
    with pytest.raises(GraphError):
        verify_lemma_shift("L3.7a", {"a3": 1, "a4": 2, "a5": 1, "a6": 1})
    with pytest.raises(GraphError):
        verify_lemma_shift("L3.2c", {"a1": 1, "a6": 1})  # a6 not live here
    # a count that is not a non-negative int raises before any other check
    for rule_id, params in (
        ("L3.2a", {"a1": 5, "a2": 1, "a3": -3}),  # not a SKIPPED row (paper delta -6)
        ("L3.7a", {"a3": 2.0, "a4": 2, "a5": 2, "a6": 2}),  # not with_pendants' TypeError
        ("L3.2c", {"a1": True}),  # bools are ints to isinstance
        ("L3.2c", {"a1": 1, "a6": -1}),  # before the dead-parameter check
    ):
        with pytest.raises(GraphError, match="not non-negative integers"):
            verify_lemma_shift(rule_id, params)


_COUNTS = st.one_of(st.integers(-3, 12), st.booleans(), st.floats(), st.text(max_size=3), st.none())


@given(st.sampled_from(rule_ids()), st.one_of(
    st.dictionaries(st.sampled_from(PARAMS), st.integers(-3, 12), max_size=6),
    st.dictionaries(st.one_of(st.sampled_from(PARAMS), st.text(max_size=3)), _COUNTS,
                    max_size=8),
))
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
def test_verify_lemma_shift_params_give_a_row_or_graph_error(rule_id, params):
    """Any params dict (counts a1..a6 and foreign keys, each a bool, float,
    string, None or an int in -3..12) gives a `ShiftCheckRow` or raises
    `GraphError`, never another exception; a row means every count is a
    non-negative int, and it is measured exactly when it is not SKIPPED."""
    try:
        row = verify_lemma_shift(rule_id, params)
    except GraphError:
        return
    assert isinstance(row, ShiftCheckRow)
    assert all(type(v) is int and v >= 0 for v in params.values()), params
    assert (row.measured is None) == (row.status == SKIPPED), row


def test_sampler_gives_at_most_count():
    """`lemmas --count N` gives at most N rows per rule and region: the
    sampler stops after 20,000 draws, and L3.2c's loaded batch at suite
    seed 0 (seeded as `run_shift_suite` seeds it) holds 34 of 500."""
    rule = RULES["L3.2c"]
    batch = _sample_params(rule, random.Random("0:L3.2c:loaded"), 500, loaded=True)
    assert len(batch) == 34
    assert _sample_params(rule, random.Random("0:L3.2c:loaded"), 40, loaded=True) \
        == batch


def test_realization_groups_equal_canon_closure():
    """Every rule realization's `subdivision` group is, as a set, the closure
    of `reference_canon`'s generators on the same brace, with the identity first and
    no repeats."""
    for group in GROUPS.values():
        for brace, auts in zip(group.realizations, group.automorphisms):
            gens = reference_canon(brace).generators
            closure, frontier = {tuple(range(brace.n))}, [tuple(range(brace.n))]
            while frontier:
                g = frontier.pop()
                for gen in gens:
                    if (h := tuple(gen[v] for v in g)) not in closure:
                        closure.add(h)
                        frontier.append(h)
            assert auts[0] == tuple(range(brace.n))
            assert len(set(auts)) == len(auts) and set(auts) == closure, group.group


def test_role_assignments_equal_orbit_walk():
    """On every rule brace, the least images under its `subdivision` group
    are the tuples the orbit walk over `reference_canon`'s generators
    keeps, in the same order (1,544 in all)."""
    total = 0
    for group in GROUPS.values():
        for brace, auts in zip(group.realizations, group.automorphisms):
            got = list(_role_assignments(brace, auts, group.roles, group.role_degrees))
            assert got == list(orbit_walk_role_assignments(
                brace, group.roles, group.role_degrees)), group.group
            total += len(got)
    assert total == 1544


def test_hub_swap_with_empty_far_hub_is_isomorphic():
    """The printed hub-to-hub delta cannot hold when the receiving hub is
    bare: that shift is an automorphism flip, so the index cannot change."""
    brace = subdivision(2, ((0, 1),) * 4, (1, 2, 2, 2))[0]
    g = with_pendants(brace, {1: 3})  # three pendants at one hub, none at the other
    h = shift_pendants(g, ShiftSpec(1, 0, 3))
    assert canonical_form(g) == canonical_form(h)
    row = verify_lemma_shift("L3.6b", {"a2": 3})
    assert row.measured == 0 and row.expected == 2
    assert row.status == DISCREPANT


def test_calibration_deterministic_and_sane():
    for gid in ("L3.2", "L3.6", "L3.7"):
        cal = calibrate(gid)
        assert cal == calibrate(gid)
        brace = cal.brace()
        assert len(set(cal.roles)) == len(cal.roles)
        assert all(0 <= v < brace.n for v in cal.roles)
    # stated degree constraints hold for the four-path braces
    cal = calibrate("L3.7")
    brace = cal.brace()
    assert brace.degree(cal.roles[0]) == brace.degree(cal.roles[1]) == 4
    assert all(brace.degree(v) == 2 for v in cal.roles[2:])


def test_suite_small_run_structure():
    report = run_shift_suite(count=4, seed=1)
    statuses = report.statuses()
    assert set(statuses) == set(rule_ids())
    for rid, status in statuses.items():
        if status == DISCREPANT:
            assert rid in report.interpolations
    for row in report.rows:
        assert row.measured is not None, row  # the sampler yields no SKIPPED tuple
        if row.status == MATCH:
            assert row.measured == row.expected > 0


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_shift_random_roundtrip(seed):
    """Shifting pendants there and back restores the original graph."""
    rng = random.Random(seed)
    g = with_pendants(cycle(4), {0: rng.randint(1, 4), 2: rng.randint(0, 3)})
    k = rng.randint(1, g.degree(0) - 2)
    h = shift_pendants(g, ShiftSpec(0, 2, k))
    back = shift_pendants(h, ShiftSpec(2, 0, k))
    assert canonical_form(back) == canonical_form(g)


# every brace realization as an edge list: the calibrated roles name these
# vertex labels, so a builder that numbers internal vertices differently
# would change the lemma report
GROUP_EDGES = {
    "L3.2": [[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)]],
    "L3.3": [[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 4)]],
    "L3.4": [
        [(0, 1), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (2, 4), (2, 5)],
        [(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 5)],
    ],
    "L3.5": [[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 5), (4, 5)]],
    "L3.6": [[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]],
    "L3.7": [[(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5)]],
    "L3.8": [[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (4, 5)]],
}


def test_group_realizations_keep_their_labels():
    assert set(GROUPS) == set(GROUP_EDGES)
    for gid, group in GROUPS.items():
        assert [[tuple(e) for e in r.edges()] for r in group.realizations] \
            == GROUP_EDGES[gid], gid
        assert all(r.n == 1 + max(max(e) for e in r.edges())
                   for r in group.realizations)
    # a bicyclic theta is numbered the same way: hubs, then path by path
    brace, _ = subdivision(2, ((0, 1),) * 3, (1, 2, 2))
    assert [tuple(e) for e in brace.edges()] == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
