import dataclasses
import json
import random

import pytest

from mostar import Graph, GraphError, canonical_form, cycle, edge_mostar
from mostar import families
from mostar.enumeration import bicyclic_task, tricyclic_task
from mostar.families import (
    DISCOVERY,
    DiscoveryReport,
    FamilyRegistry,
    NotPinnedError,
    _brace_tails,
    _collect_group,
    _member_collisions,
    _member_table,
    _normalize_candidate,
    _poly_str,
    _unresolved_forensics,
    builtin_registry,
    discover_families,
)
from mostar.braces import kernel_braces, subdivision
from mostar.graphs import with_pendants
from mostar.indices import model_tails, pendant_model, poly_eval, tail_index
from mostar.shifts import GROUPS
from mostar.verify import BICYCLIC
from _helpers import (
    classify_graph, complete, hang_random_trees, relabel,
    single_attach_decomposition, strip_pendants, verify_family,
)


def test_build_s_mr():
    """S_M4 is the cycle of length 4 with m - 4 pendant edges at one vertex."""
    g = builtin_registry()["S_M4"].build(9)
    assert (g.n, g.m) == (9, 9)
    assert g.degree(0) == 7  # cycle vertex carrying 5 pendants
    assert canonical_form(g) == canonical_form(with_pendants(cycle(4), {0: 5}))


def test_build_a0_value():
    g = builtin_registry()["A0"].build(12)
    assert edge_mostar(g) == 96


def test_build_a3_value():
    assert edge_mostar(builtin_registry()["A3"].build(8)) == 23


def test_build_structural_families():
    """Only registry ids name families: cycles, paths, stars and S_MR are
    built with the graph builders, not looked up in the registry."""
    reg = builtin_registry()
    for fid in ("CYCLE", "PATH", "S_STAR", "S_MR"):
        with pytest.raises(NotPinnedError):
            reg[fid]
        with pytest.raises(NotPinnedError):
            verify_family(fid, [9])


def test_build_errors():
    reg = builtin_registry()
    with pytest.raises(GraphError):
        reg["A0"].build(11)  # below m_min
    with pytest.raises(NotPinnedError):
        reg["F1"]  # not pinned in the builtin registry


def test_polynomial_values(registry):
    assert poly_eval(registry["A0"].poly, 12) == 96
    assert poly_eval(registry["F2"].poly, 18) == 244
    assert poly_eval(registry["H2"].poly, 12) == 89
    for fid in ("B2", "B4"):
        assert registry[fid].poly is None
        with pytest.raises(ValueError, match="no closed form"):
            verify_family(fid, [9], registry)


def test_verify_family_analytic_ranges():
    reg = builtin_registry()
    for fid, lo, hi in (("A0", 12, 40), ("B0", 8, 40), ("H1", 7, 40)):
        rows = verify_family(fid, range(lo, hi + 1), reg)
        assert all(r.ok for r in rows)


def test_registry_round_trip(registry):
    text = registry.to_json()
    back = FamilyRegistry.from_json(text)
    assert back.ids() == registry.ids()
    for fid in registry.ids():
        assert back[fid] == registry[fid]
    entry = json.loads(text)[0]
    assert set(entry) == {"id", "base_edges", "attach", "m_min", "poly", "provenance"}


def test_registry_classes(registry):
    from _helpers import cyclomatic_number

    for fid in registry.ids():
        spec = registry[fid]
        base = spec.base_graph()
        cyc = cyclomatic_number(base)
        if fid.startswith(("A", "D", "F", "H")):
            assert cyc == 3, fid
        elif fid.startswith("B"):
            assert cyc == 2, fid
        elif fid.startswith("S_M"):
            assert cyc == 1, fid


def test_discovered_entries_verify(registry):
    for fid in registry.ids():
        spec = registry[fid]
        if spec.poly is None:
            continue
        rows = verify_family(fid, range(spec.m_min, spec.m_min + 8), registry)
        assert all(r.ok for r in rows), fid


def test_registry_polynomials_are_pendant_tails(registry):
    """With test_pendant_tail_against_edge_mostar, this proves every
    registry polynomial for all m >= m_min, not only on sampled sizes."""
    for fid in registry.ids():
        spec = registry[fid]
        if spec.poly is not None:
            tail = model_tails(pendant_model(spec.base_graph().adj))[spec.attach][:2]
            assert tail == (spec.poly, spec.m_min), fid


def test_h4_head_coincidence_rejected(atlas_report):
    """Pendants at interior vertex 2 of the H4 brace hit the printed
    m^2-3m-24 at m = 9 only: the tail is m^2-3m-32 from m >= 11, so the
    brace pass over sizes up to 9 (or 12) yields no H4 candidate."""
    printed = DISCOVERY["H4"][0]
    base, _ = subdivision(2, ((0, 1),) * 4, (1, 2, 2, 3))
    g = with_pendants(base, {2: 1})
    assert edge_mostar(g) == poly_eval(printed, 9)
    forms = model_tails(pendant_model(base.adj))
    assert forms[2][:2] == ((1, -3, -32), 11)
    assert tail_index(forms[2], 9 - base.m, 9) == poly_eval(printed, 9)
    for hi in (9, 12):
        assert _collect_group("H4", _brace_tails(3, hi)) == []
    # the three measured forms the atlas report records for H4
    note = next(n for n in atlas_report["notes"] if n.startswith("H4:"))
    for v, form in ((0, "m^2-3m-20 from m>=8"), (2, "m^2-3m-32 from m>=11"),
                    (4, "m^2-3m-36 from m>=12")):
        poly, holds_from, _ = forms[v]
        assert f"{_poly_str(poly)} from m>={holds_from}" == form
        assert f"orbit of {v}: {form}" in note


@pytest.mark.parametrize("claimed", [(1, -3, -24), (1, -2, -30)])
def test_forensic_hits_exact(monkeypatch, claimed):
    """The sizes at which each measured H4 family equals the printed form,
    against edge_mostar over 60 sizes; m^2-2m-30 crosses the hub family's
    tail at m = 10, past its head."""
    _, shape = DISCOVERY["H4"]
    monkeypatch.setitem(DISCOVERY, "H4", (claimed, shape))
    report = DiscoveryReport()
    _unresolved_forensics("H4", report)
    base, _ = subdivision(2, ((0, 1),) * 4, shape.path_parameters)
    families = report.notes[0].split("measured families: ")[1].split("; ")
    assert len(families) == 3
    for line in families:
        v = int(line.split("orbit of ")[1].split(":")[0])
        reported = json.loads(line.split("only at m=")[1]) if "only at" in line else []
        g, hits = base, []
        for m in range(base.m, base.m + 60):
            if edge_mostar(g) == poly_eval(claimed, m):
                hits.append(m)
            g = with_pendants(g, {v: 1})
        assert reported == hits, line


def test_build_strip_round_trip(registry):
    spec = registry["A2"]
    g = spec.build(spec.m_min + 4)
    d = strip_pendants(g)
    assert canonical_form(d.brace) == canonical_form(spec.base_graph())
    assert d.pendant_count == spec.m_min + 4 - spec.m_base


def test_crossover_consistency(registry):
    def value(fid, m):
        return poly_eval(registry[fid].poly, m)

    # the dominant family never loses to its same-class runner-up late
    for m in range(12, 30):
        assert value("A0", m) > value("A3", m)
    # and the runner-up wins exactly where the published table says
    assert value("A2", 10) == 53
    assert value("A2", 11) == 72
    assert value("A1", 11) == 72


def test_brace_pass_needs_tail_by_largest_size(registry):
    """F2's tail holds from m = 10 on its 7-edge brace: surveys up to size 9
    give no F2 candidate, up to size 10 give it with m_min 10."""
    spec = registry["F2"]
    key = _normalize_candidate(spec.base_graph(), spec.attach)[2]
    for hi, want in ((9, []), (10, [(10, 10)])):
        tails = _brace_tails(3, hi)
        assert [(c.m_min, c.first_seen_m) for c in _collect_group("F2", tails)
                if c.key == key] == want


def test_normalize_candidate_contract():
    """On every kernel brace (tricyclic up to 10 edges, bicyclic up to 9)
    at every vertex: the (base edges, attach, key) triple does not depend
    on the brace's labels, and the key is the canonical form of the
    returned base with one pendant at the returned attach vertex."""
    rng = random.Random(59)
    braces = [g for c, top in ((3, 10), (2, 9))
              for group in kernel_braces(c, range(c + 1, top + 1)).values()
              for g, _, _ in group]
    pairs = 0
    for brace in braces:
        perms = [rng.sample(range(brace.n), brace.n) for _ in range(2)]
        for v in range(brace.n):
            edges, attach, key = got = _normalize_candidate(brace, v)
            for perm in perms:
                assert _normalize_candidate(relabel(brace, perm), perm[v]) == got
            base = Graph.from_edges(brace.n, edges)
            assert canonical_form(with_pendants(base, {attach: 1})) == key
            pairs += 1
    assert pairs == 1071


def test_brace_pass_labels_each_orbit_once(monkeypatch):
    """The brace pass reads a tail at one vertex per orbit of each brace's
    group, so it labels each candidate orbit once: up to the atlas's
    default sizes (tricyclic 12, bicyclic 10) 49 labels for 49 distinct
    keys (70 labels if every vertex were read)."""
    real, labels = families._normalize_candidate, []

    def counted(base, attach):
        labels.append(real(base, attach))
        return labels[-1]

    monkeypatch.setattr(families, "_normalize_candidate", counted)
    tails = _brace_tails(3, 12) + _brace_tails(2, 10)
    assert len(labels) == len(tails) == len({key for _, _, key in labels}) == 49


def test_k4_has_no_discovery_tail():
    """K4, the only tricyclic brace below size 7 (the smallest surveyed
    size), is vertex-transitive with tail m^2-4m-12, no DISCOVERY form,
    and its class is no DISCOVERY shape."""
    k4 = complete(4)
    assert {f[:2] for f in model_tails(pendant_model(k4.adj))} == {((1, -4, -12), 6)}
    assert (1, -4, -12) not in {poly for poly, _ in DISCOVERY.values()}
    assert classify_graph(k4) not in {shape for _, shape in DISCOVERY.values()}
    assert [len(found) for found in kernel_braces(3, range(7)).values()] == [0] * 6 + [1]
    assert _brace_tails(3, 6) == []


def _isomorphism_scan(reg, hi):
    forms = {
        (f, m): canonical_form(reg[f].build(m))
        for f in reg.ids()
        for m in range(reg[f].m_min, hi + 1)
    }
    scan = {}
    ids = reg.ids()
    for i, f1 in enumerate(ids):
        for f2 in ids[i + 1:]:
            hit = [m for m in range(hi + 1)
                   if (f1, m) in forms and forms[(f1, m)] == forms.get((f2, m))]
            if hit:
                scan[f"{f1}/{f2}"] = hit
    return scan


def _with_base_pendant(spec, fid, at):
    """spec's family on its base plus one pendant edge at vertex `at`: a
    base that is not a brace, one size larger."""
    return dataclasses.replace(spec, id=fid, m_min=spec.m_base + 1,
                               base_edges=spec.base_edges + ((at, spec.n_base),))


def test_member_collisions_exact(registry):
    """The ids sharing a canonical form at each size of the table equal the
    isomorphism scan over every registry pair for m <= 16 (the table labels
    each family at its class's task order only, and a unicyclic family's
    members collide with none), and the marked-base keys are distinct.  A
    relabelled copy of F1 collides with F1 at every size, and H1 on its base
    plus a pendant edge at its attachment vertex collides with H1 from that
    base's size on; with the pendant edge at a degree-2 vertex it collides
    with nothing."""
    hi = 16
    keys = [_normalize_candidate(registry[f].base_graph(), registry[f].attach)[2]
            for f in registry.ids()]
    assert len(set(keys)) == len(keys)
    tops = {tricyclic_task: hi, bicyclic_task: hi}
    table = _member_table(registry, tops)
    assert _member_collisions(table) == _isomorphism_scan(registry, hi) == {
        "B3/B4": [5]
    }
    f1, h1 = registry["F1"], registry["H1"]
    last = f1.n_base - 1
    copy = dataclasses.replace(
        f1, id="F1_copy", attach=last - f1.attach,
        base_edges=tuple((last - a, last - b) for a, b in f1.base_edges),
    )
    reg = FamilyRegistry([f1, copy, h1, _with_base_pendant(h1, "H1_hub", 0),
                          _with_base_pendant(h1, "H1_deg2", 2)])
    assert _member_collisions(_member_table(reg, tops)) == _isomorphism_scan(reg, hi) == {
        "F1/F1_copy": list(range(7, hi + 1)),
        "H1/H1_hub": list(range(8, hi + 1)),
    }


def test_discovery_labels_each_member_once(monkeypatch, tri_surveys, bi_surveys):
    """One discovery pass labels each member graph once: the candidate
    checks at every surveyed size that lists an id, for whichever id asks,
    and the member table share one cache.  B3 and B4 at size 5 are different
    constructions with isomorphic members, so both are labelled.  Every
    labelled member has its class's task order at its size, so no member
    of the unicyclic S_M3 or S_M4 is labelled."""
    seen = []

    def counting(g):
        seen.append((g.n, tuple(g.edges())))
        return canonical_form(g)

    monkeypatch.setattr(families, "canonical_form", counting)
    _, report = discover_families(tri_surveys, bi_surveys)
    assert report.collisions == {"B3/B4": [5]}
    assert len(seen) == len(set(seen)) == 103
    assert all(n in (tricyclic_task(len(edges)).n, bicyclic_task(len(edges)).n)
               for n, edges in seen)
    assert {len(edges) - n for n, edges in seen} == {1, 2}  # both classes labelled


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_discovery_ignores_table_order(monkeypatch, tri_surveys, bi_surveys, seed):
    """Ids are visited by how many surveyed sizes list them, ties by id, so
    the registry and report do not depend on DISCOVERY's insertion order."""
    reg, report = discover_families(tri_surveys, bi_surveys)
    items = list(DISCOVERY.items())
    random.Random(seed).shuffle(items)
    assert items != list(DISCOVERY.items())
    monkeypatch.setattr(families, "DISCOVERY", dict(items))
    shuffled_reg, shuffled_report = discover_families(tri_surveys, bi_surveys)
    assert shuffled_reg.to_json() == reg.to_json()
    assert json.dumps(shuffled_report.to_dict()) == json.dumps(report.to_dict())


@pytest.mark.parametrize("top", range(7, 13))
def test_discovery_at_each_atlas_limit(tri_surveys, bi_surveys, atlas_report, top):
    """Surveys cut at each atlas limit (bicyclic capped as `atlas` caps it)
    resolve every id they resolve to its committed key.  At limit 9, A2
    resolves from the size-9 list; A1, listed only at size 11, does not."""
    _, report = discover_families(
        {m: s for m, s in tri_surveys.items() if m <= top},
        {m: s for m, s in bi_surveys.items() if m <= min(top, BICYCLIC.tail_start)})
    for fid, entry in report.resolved.items():
        assert entry["key"] == atlas_report["resolved"][fid]["key"], fid
    if top == 9:
        assert sorted(report.unresolved) == ["A1", "A7", "F2", "H3", "H4"]


def _reference_single_attach(g):
    """The rebuild rule: the brace with all pendants bare at the one
    attachment vertex must be isomorphic to g."""
    d = strip_pendants(g)
    hot = [v for v, k in d.attachment_profile.items() if k > 0]
    if len(hot) != 1:
        return None
    rebuilt = with_pendants(d.brace, {hot[0]: d.pendant_count})
    return (d.brace, hot[0]) if canonical_form(rebuilt) == canonical_form(g) else None


def test_single_attach_decomposition_matches_rebuild(registry):
    """On braces with random trees hung on, and with bare pendants at one
    vertex, the leaf-count rule decides as rebuild-and-isomorphic does."""
    rng = random.Random(47)
    braces = [registry[f].base_graph() for f in registry.ids()]
    braces += [b for group in GROUPS.values() for b in group.realizations]
    braces += [complete(4), subdivision(2, ((0, 1),) * 3, (1, 3, 3))[0]]
    outcomes = set()
    for brace in braces:
        for _ in range(30):
            if rng.random() < 0.5:
                g = with_pendants(brace, {rng.randrange(brace.n): rng.randint(0, 6)})
            else:
                g = hang_random_trees(rng, brace, rng.randint(1, 6))
            got = single_attach_decomposition(g)
            assert got == _reference_single_attach(g), g.edges()
            outcomes.add(got is None)
    assert outcomes == {True, False}
