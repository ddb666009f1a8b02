"""The deep checks past the tier-1 sizes, one named function each.

pytest does not collect this file (only `test_*.py` is collected); CI runs
each check by name from the repository root:

    python -B tests/deep.py <name>

The checks read the checkout's `src/` and `tests/_helpers.py` and, for
the lemma rows, the benchmark's oracle in `perfbench/`, writing nothing
under it.  A failed check names what differed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]


def _survey(m: int):
    from mostar.enumeration import survey, tricyclic_task

    t = tricyclic_task(m)
    return survey([t], workers=2)[t]


def _brace_count(s) -> tuple[int, int]:
    """(distinct canonical forms of the carried braces, braces carried)."""
    from mostar.canon import canonical_form

    return len({canonical_form(g) for g, _, _ in s.braces}), len(s.braces)


def _not_canonical(s) -> list[str]:
    """The maximizer strings that are not their own canonical form."""
    from mostar.canon import canonical_form
    from mostar.graphs import parse_graph6

    return [g6 for g6 in s.result.maximizers if canonical_form(parse_graph6(g6)) != g6]


def tricyclic_13_totals() -> None:
    """The survey's class and brace totals at m = 13 are nothing any test
    checks (tier-1 counts the kernel braces and the Polya classes up to 14
    edges, but surveys only up to m = 12), so a generator or fold change
    that dropped or duplicated a class there, or changed which graphs
    reach the fold, shows only here; so does a carried brace that repeats
    another up to isomorphism (the braces travel as graphs, so the count
    is of distinct canonical forms), a maximizer string that is not its
    own canonical form, which family identity relies on, or pendant tails
    the survey carries for a brace that are not the `model_tails` records
    of the graph it carries at the largest vertex of each orbit and None
    elsewhere (`_helpers.orbit_tails`), which discovery reads, or a class
    carried for a brace or a maximizer that is not the graph-level
    classifier's (`_helpers.classify_graph`), or a brace and attachment
    vertex carried for a maximizer that are not, up to isomorphism, what
    peeling its leaves gives (`_helpers.single_attach_decomposition`),
    both of which discovery also reads (tier-1 checks up to m = 12)."""
    import _helpers
    from mostar.graphs import parse_graph6

    s = _survey(13)
    distinct, carried = _brace_count(s)
    assert s.result.graphs_visited == 33851 and distinct == carried == 474, (
        f"classes {s.result.graphs_visited} (want 33851), distinct braces "
        f"{distinct} of {carried} carried (want 474 of 474)")
    bad = _not_canonical(s)
    assert not bad, f"maximizers that are not their canonical form: {bad}"
    bad = [g for g, tails, _ in s.braces if tails != _helpers.orbit_tails(g)]
    assert not bad, f"{len(bad)} braces carry tails other than orbit_tails, first {bad[0]}"
    assert len(s.maximizer_classes) == len(s.result.maximizers), (
        f"{len(s.maximizer_classes)} maximizer classes for "
        f"{len(s.result.maximizers)} maximizers")
    bad = [(g, cls) for g, _, cls in s.braces if cls != _helpers.classify_graph(g)]
    assert not bad, f"{len(bad)} braces carry a class other than the oracle's, first {bad[0]}"
    bad = [(g6, cls) for g6, cls in zip(s.result.maximizers, s.maximizer_classes)
           if cls != _helpers.classify_graph(parse_graph6(g6))]
    assert not bad, f"maximizers carrying a class other than the oracle's: {bad}"
    assert len(s.maximizer_braces) == len(s.result.maximizers), (
        f"{len(s.maximizer_braces)} maximizer braces for "
        f"{len(s.result.maximizers)} maximizers")
    bad = [g6 for g6, dec in zip(s.result.maximizers, s.maximizer_braces)
           if _helpers.attach_key(dec) != _helpers.attach_key(
               _helpers.single_attach_decomposition(parse_graph6(g6)))]
    assert not bad, f"maximizers whose carried brace and attachment differ from peeling: {bad}"


def _model_scores(c: int, m: int, counts: list[int]) -> None:
    import _helpers

    got = _helpers.check_model_scores(c, m)
    want = dict(zip(range(m - len(counts) + 1, m + 1), counts))
    assert got == want, f"classes checked per size: got {got}, want {want}"


def tricyclic_13_model_scores() -> None:
    """The survey's per-brace pass counts classes by the cycle index,
    scores the corners and lists the ties among them, off its brace's
    pendant model; the pick listing in `tests/_helpers.py` scores every
    class the same way, and tier-1 compares those scores with edge_mostar
    on every class up to tricyclic m = 11, and the pass with the
    listing's count, best value and best rows, so m = 12 and 13 (all 8,548
    and 33,851 classes, and the pass driven with every size from the
    brace's up to 13) are compared only here."""
    _model_scores(3, 13, [1, 4, 22, 107, 486, 2075, 8548, 33851])


def bicyclic_12_model_scores() -> None:
    """The same comparison on bicyclic braces, whose loop flips give the
    automorphisms their 2-cycles, so a cycle-walk slip in the cycle index
    shows as a wrong class count; tier-1 stops at bicyclic m = 10."""
    _model_scores(2, 12, [1, 5, 19, 67, 236, 797, 2678, 8833])


def tricyclic_14_totals() -> None:
    """m = 14: the class total, brace count (distinct canonical forms of the
    carried graphs, so a repeated brace fails), maximum (146 = m^2 - m - 36)
    and single maximizer that the walk and the Polya count recorded before
    the brace-first survey existed."""
    s = _survey(14)
    distinct, carried = _brace_count(s)
    assert s.result.graphs_visited == 130365 and distinct == carried == 787, (
        f"classes {s.result.graphs_visited} (want 130365), distinct braces "
        f"{distinct} of {carried} carried (want 787 of 787)")
    assert s.result.max_value == 146 and len(s.result.maximizers) == 1, (
        f"maximum {s.result.max_value} (want 146) with maximizers "
        f"{s.result.maximizers} (want one)")
    bad = _not_canonical(s)
    assert not bad, f"maximizers that are not their canonical form: {bad}"


def class_totals() -> None:
    """Every class total up to the top sizes, tricyclic 6..22 and bicyclic
    5..30: the survey's `graphs_visited` equals
    `_helpers.burnside_class_totals`, a count by Burnside's lemma over the
    kernels' own automorphisms that builds no brace and reads no brace
    group.  Every other count of the totals reads the groups
    `braces.subdivision` gives, and tier-1 and the checks above compare
    totals only up to tricyclic 14 and bicyclic 13, so a group short of an
    automorphism on a larger brace shows only here."""
    import _helpers
    from mostar.enumeration import survey
    from mostar.verify import BICYCLIC, TRICYCLIC

    specs = {3: TRICYCLIC, 2: BICYCLIC}
    tasks = {c: [spec.task(m) for m in spec.sizes] for c, spec in specs.items()}
    surveys = survey([t for ts in tasks.values() for t in ts], workers=2)
    for c, spec in specs.items():
        want = _helpers.burnside_class_totals(c, spec.top)
        bad = [(t.m, surveys[t].result.graphs_visited, want[t.m]) for t in tasks[c]
               if surveys[t].result.graphs_visited != want[t.m]]
        assert not bad, (
            f"cyclomatic number {c}: (m, graphs_visited, Burnside count) differing: {bad}")


def lemma_rows() -> None:
    """The benchmark's lemmas gate rebuilds 100 sampled rows per run with
    its brute-force distance oracle (`perfbench/gates.shift_delta`); this
    rebuilds every row of the seed-0 suite, on the pinned calibrations.
    The suite samples with random.randint, whose sequence Python does not
    promise to keep across versions; the pinned rows hold on 3.10 through
    3.13, and a version that changes the sequence fails here."""
    sys.dont_write_bytecode = True  # nothing is written under perfbench/
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gates
    from mostar.shifts import run_shift_suite

    ref = json.loads((ROOT / "perfbench" / "reference.json").read_text())["lemmas"]
    report = run_shift_suite(20, 0).to_dict()
    rows = report["rows"]
    differ = sorted(k for k in {*report["calibrations"], *ref["calibrations"]}
                    if report["calibrations"].get(k) != ref["calibrations"].get(k))
    assert report["calibrations"] == ref["calibrations"], (
        f"calibrations differing from perfbench/reference.json: {differ}")
    bad = [r for r in rows if r["measured_delta"] is None or gates.shift_delta(
        ref, ref["calibrations"][ref["rules"][r["lemma"]]["group"]], r["lemma"],
        r["params"]) != r["measured_delta"]]
    assert len(rows) == 800 and not bad, (
        f"{len(rows)} rows (want 800); {len(bad)} differ from the oracle, first {bad[:3]}")


def pendant_rows() -> None:
    """`edge_mostar` of every shift-rule brace with 0..4 pendant edges at
    each vertex of every triple (16,250 graphs) equals the row-sum oracle
    k (m - 1) + sum over e of |c_e + sum_w a_w s_e(w)| off the brace's
    `pendant_model`; tier-1 checks the vertex pairs, counts 0..8.  It
    guards the pendant runs `edge_mostar` puts in each vertex's seed, and
    the row sum is what a graph-free `shifts.measured_delta` would
    compute."""
    import _helpers
    from mostar.shifts import GROUPS

    for gid, group in sorted(GROUPS.items()):
        for i, brace in enumerate(group.realizations):
            bad = _helpers.pendant_row_mismatches(brace, 3, 4)
            assert not bad, (
                f"{gid} realization {i}, edges {brace.edges()}: {len(bad)} count maps "
                f"differ; first (counts, edge_mostar, row sum) {bad[0]}")


CHECKS = {f.__name__: f for f in (tricyclic_13_totals, tricyclic_13_model_scores,
                                  bicyclic_12_model_scores, tricyclic_14_totals,
                                  class_totals, lemma_rows, pendant_rows)}

if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in CHECKS:
        sys.exit(f"usage: python tests/deep.py {{{','.join(CHECKS)}}}")
    CHECKS[sys.argv[1]]()
