import dataclasses
from typing import Optional

import pytest

from mostar import canonical_form, verify
from mostar.braces import kernel_braces
from mostar.families import FamilyRegistry, FamilySpec, builtin_registry
from mostar.graphs import with_pendants
from mostar.indices import model_tails, pendant_model, poly_eval, tail_index
from mostar.verify import BICYCLIC, TRICYCLIC, _row, run_atlas


# the per-class functions the ClassSpec table replaced, kept verbatim as the
# reference for every size the table must reproduce
def reference_tricyclic_max(m: int) -> Optional[int]:
    table = {7: 12, 8: 23, 9: 36, 10: 53, 11: 72}
    if m in table:
        return table[m]
    if m >= 12:
        return m * m - m - 36
    return None


def reference_tricyclic_families(m: int) -> tuple[str, ...]:
    table = {
        7: ("F1", "H1"),
        8: ("A3", "F1", "H1"),
        9: ("A2", "A3", "A4", "A5", "A6", "F1", "H1"),
        10: ("A2",),
        11: ("A1", "A2"),
    }
    if m in table:
        return table[m]
    if m >= 12:
        return ("A0",)
    return ()


def reference_bicyclic_max(m: int) -> Optional[int]:
    if m == 5:
        return 4
    if 6 <= m <= 8:
        return m * m - 3 * m - 6
    if m == 9:
        return 48
    if m >= 10:
        return m * m - m - 24
    return None


def reference_bicyclic_families(m: int) -> tuple[str, ...]:
    if m == 5:
        return ("B3", "B4")
    if 6 <= m <= 8:
        return ("B1", "B3")
    if m == 9:
        return ("B0", "B1", "B2", "B3", "B4")
    if m >= 10:
        return ("B0",)
    return ()


def test_class_tables_match_reference():
    """Below the statement (None, ()), the listed sizes and the quadratic
    tail, for every m in 0..40."""
    for m in range(41):
        assert TRICYCLIC.expected_max(m) == reference_tricyclic_max(m), m
        assert TRICYCLIC.expected_families(m) == reference_tricyclic_families(m), m
        assert BICYCLIC.expected_max(m) == reference_bicyclic_max(m), m
        assert BICYCLIC.expected_families(m) == reference_bicyclic_families(m), m


def _labelled_hits(spec, m, result, registry):
    """family_hits by the one identity rule, written out apart from `_row`:
    a family hits when its size-m member's canonical form is one of the
    maximizer strings, which the survey stores in that form."""
    return {f: None if f not in registry or registry[f].m_min > m
            else canonical_form(registry[f].build(m)) in result.maximizers
            for f in spec.expected_families(m)}


def test_family_hits_match_labelling(registry, tri_surveys, bi_surveys):
    """Every row's family_hits equal labelling each family's member, on the
    committed registry and on one whose bases are not braces: H1's base
    plus a pendant edge at its attachment vertex (which hits wherever H1
    does from that size on), H1's base plus a pendant edge at a degree-2
    vertex, and a star."""
    h1 = registry["H1"]
    hub = dataclasses.replace(h1, m_min=8, base_edges=h1.base_edges + ((0, 5),))
    side = dataclasses.replace(hub, id="F1", base_edges=h1.base_edges + ((2, 5),))
    star = FamilySpec("A3", ((0, 1), (0, 2), (0, 3)), 0, 3, None, "TEST")
    odd = FamilyRegistry([hub, side, star, dataclasses.replace(star, id="B0")])
    rows = 0
    for spec, surveys in ((TRICYCLIC, tri_surveys), (BICYCLIC, bi_surveys)):
        for m, s in sorted(surveys.items()):
            for reg in (registry, odd):
                hits = _row(spec, m, s.result, reg).family_hits
                assert hits == _labelled_hits(spec, m, s.result, reg), (m, hits)
                rows += 1
            if "H1" in spec.expected_families(m) and m >= 8:
                assert _row(spec, m, s.result, odd).family_hits["H1"] is \
                    _row(spec, m, s.result, registry).family_hits["H1"] is True
    assert rows == 24


def test_atlas_sizes_checked_before_any_survey(monkeypatch):
    """A limit outside its class's range, from the table's first listed
    size through the last size the verify command accepts (tricyclic 7..22,
    bicyclic 5..30), raises ValueError before any survey starts, in either
    class; the largest limits of both get past the check to the survey."""
    class Surveyed(Exception):
        pass

    def no_survey(*args, **kwargs):
        raise Surveyed

    monkeypatch.setattr(verify, "survey", no_survey)
    for tri, bi, msg in ((6, 10, "tri_max_size 6 outside supported range 7..22"),
                         (23, 10, "tri_max_size 23 outside supported range 7..22"),
                         (12, 4, "bi_max_size 4 outside supported range 5..30"),
                         (12, 31, "bi_max_size 31 outside supported range 5..30")):
        with pytest.raises(ValueError, match=msg):
            run_atlas(tri_max_size=tri, bi_max_size=bi, workers=2)
    for tri, bi in ((22, 30), (21, 10), (12, 30)):
        with pytest.raises(Surveyed):
            run_atlas(tri_max_size=tri, bi_max_size=bi)


@pytest.mark.parametrize("spec, c, fid, orbits", [
    (TRICYCLIC, 3, "A0", 3), (BICYCLIC, 2, "B0", 1)], ids=["tricyclic", "bicyclic"])
def test_theorem_holds_for_every_m(spec, c, fid, orbits):
    """The table's quadratic bounds every connected graph of cyclomatic
    number c at every m >= tail_start (m^2-m-36 from 12, m^2-m-24 from
    10), reached only by the family's member, by a finite exact check.

    A graph whose brace has b edges has Mo_e <= m(m - 1) - 2b (the
    `indices` deficit bound), below the quadratic unless b <= b_max =
    -tail_poly[2] / 2 (18 and 12).  For a brace with b edges, trees to
    stars (`indices`) and the best corner (the Jensen step of
    `enumeration._survey_brace`) make its best graph at m the brace with
    m - b pendant edges at one vertex, one per orbit of its group:
    `tail_index` of that vertex's `model_tails` entry, exact at every m.
    `kernel_braces` lists every brace once (`test_braces.py`'s walk and
    Burnside checks).  So each (brace, orbit) is checked at every head
    size from first = max(tail_start, b) through last = max(first,
    holds_from), and past it, where the index is the tail polynomial and
    both forms are monic, the gap to the bound is linear with slope
    N - b <= 0 (N <= b edges have s_e != 0): it stays <= 0 exactly when
    it is at `last`.

    The only ties are at the family's base, matched by canonical form
    against the built-in registry: at its attach vertex at every m, and,
    when the base has tail_start edges (A0), at each of its other orbits
    (A0's six neighbours of the hub and its three far vertices) as the
    bare brace at m = tail_start."""
    base = builtin_registry()[fid]
    base_form = canonical_form(base.base_graph())
    marked_form = canonical_form(with_pendants(base.base_graph(), {base.attach: 1}))
    b_max = -spec.tail_poly[2] // 2
    ties, braces = [], 0
    for b, found in kernel_braces(c, range(1, b_max + 1)).items():
        for brace, group, _ in found:
            braces += 1
            tails = model_tails(pendant_model(brace.adj))
            for w in sorted({min(p[v] for p in group) for v in range(brace.n)}):
                tail = tails[w]
                poly, holds_from, _ = tail
                first = max(spec.tail_start, b)
                last = max(first, holds_from)
                hits = []
                for m in range(first, last + 1):
                    index, bound = tail_index(tail, m - b, m), poly_eval(spec.tail_poly, m)
                    assert index <= bound, (brace.edges(), w, m)
                    if index == bound:
                        hits.append(m)
                slope = poly[1] - spec.tail_poly[1]
                gap = poly_eval(poly, last) - poly_eval(spec.tail_poly, last)
                assert slope <= 0 and gap <= 0, (brace.edges(), w)
                onward = slope == gap == 0
                if hits or onward:
                    ties.append((brace, w, hits, onward, range(first, last + 1)))
    assert braces == {3: 11683, 2: 93}[c]
    assert len(ties) == orbits
    attach = 0
    for brace, w, hits, onward, head in ties:
        assert canonical_form(brace) == base_form, brace.edges()
        if canonical_form(with_pendants(brace, {w: 1})) == marked_form:
            assert onward and hits == list(head), w
            attach += 1
        else:
            assert brace.m == spec.tail_start and hits == [brace.m] and not onward, w
    assert attach == 1
