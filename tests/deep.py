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


def _braces(m: int) -> list:
    """The tricyclic kernel braces with m edges, as (graph, group, class)."""
    from mostar.braces import kernel_braces

    return kernel_braces(3, [m])[m]


def _brace_count(found: list) -> tuple[int, int]:
    """(distinct canonical forms of the braces, braces listed)."""
    from mostar.canon import canonical_form

    return len({canonical_form(g) for g, _, _ in found}), len(found)


def _not_canonical(s) -> list[str]:
    """The maximizer strings that are not their own canonical form."""
    from mostar.canon import canonical_form
    from mostar.graphs import parse_graph6

    return [g6 for g6 in s.result.maximizers if canonical_form(parse_graph6(g6)) != g6]


def tricyclic_13_totals() -> None:
    """The survey's class total at m = 13 and the kernel braces of 13
    edges are nothing any test checks (tier-1 counts the kernel braces and
    the Polya classes up to 14 edges, but surveys only up to m = 12), so a
    generator or fold change that dropped or duplicated a class there, or
    changed which graphs reach the fold, shows only here; so does a kernel
    brace that repeats another up to isomorphism (the count is of distinct
    canonical forms), a maximizer string that is not its own canonical
    form, which family identity relies on, or a brace group whose orbits
    are not `canon`'s, so that the tails at one vertex per orbit differ
    from `_helpers.orbit_tails` (the tails discovery reads when a brace
    this size is in its range), or a class listed for a brace or carried
    for a maximizer that is not the graph-level classifier's
    (`_helpers.classify_graph`), or a brace and attachment vertex carried
    for a maximizer that are not, up to isomorphism, what peeling its
    leaves gives (`_helpers.single_attach_decomposition`), both of which
    discovery also reads (tier-1 checks up to m = 12)."""
    import _helpers
    from mostar.graphs import parse_graph6

    s, found = _survey(13), _braces(13)
    distinct, listed = _brace_count(found)
    assert s.result.graphs_visited == 33851 and distinct == listed == 474, (
        f"classes {s.result.graphs_visited} (want 33851), distinct braces "
        f"{distinct} of {listed} listed (want 474 of 474)")
    bad = _not_canonical(s)
    assert not bad, f"maximizers that are not their canonical form: {bad}"
    bad = [g for g, auts, _ in found if _helpers.orbit_tails(g, auts) != _helpers.orbit_tails(g)]
    assert not bad, f"{len(bad)} braces whose group's orbit tails differ, first {bad[0]}"
    assert len(s.maximizer_classes) == len(s.result.maximizers), (
        f"{len(s.maximizer_classes)} maximizer classes for "
        f"{len(s.result.maximizers)} maximizers")
    bad = [(g, cls) for g, _, cls in found if cls != _helpers.classify_graph(g)]
    assert not bad, f"{len(bad)} braces listed with a class other than the oracle's, first {bad[0]}"
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
    """m = 14: the class total, kernel brace count (distinct canonical forms
    of the listed graphs, so a repeated brace fails), maximum
    (146 = m^2 - m - 36) and single maximizer that the walk and the Polya
    count recorded before the brace-first survey existed."""
    s = _survey(14)
    distinct, listed = _brace_count(_braces(14))
    assert s.result.graphs_visited == 130365 and distinct == listed == 787, (
        f"classes {s.result.graphs_visited} (want 130365), distinct braces "
        f"{distinct} of {listed} listed (want 787 of 787)")
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


def discovery_cap() -> None:
    """Discovery lists braces only up to the last size a published equality
    list names (`families._brace_tails`: tricyclic 11, bicyclic 9).  This
    shows the cap drops no candidate at any size the command line
    accepts: no tricyclic brace of 12..22 edges and no bicyclic brace of
    10..30 edges has a DISCOVERY shape and, at any vertex, that shape's
    DISCOVERY polynomial as its `model_tails` poly, holding by the top
    size (22 or 30).  Every one of the 37,155 braces of a DISCOVERY shape
    in those ranges is read."""
    from mostar.braces import kernel_braces
    from mostar.families import DISCOVERY
    from mostar.indices import model_tails, pendant_model
    from mostar.verify import BICYCLIC, TRICYCLIC

    pairs = {(poly, shape) for poly, shape in DISCOVERY.values() if poly is not None}
    shapes = {shape for _, shape in pairs}
    checked, hits = 0, []
    for c, spec in ((3, TRICYCLIC), (2, BICYCLIC)):
        sizes = range(max(spec.listed_families) + 1, spec.top + 1)
        for found in kernel_braces(c, sizes).values():
            for g, _, cls in found:
                if cls not in shapes:
                    continue
                checked += 1
                hits += [(c, g.edges(), v, poly) for v, (poly, holds_from, _) in
                         enumerate(model_tails(pendant_model(g.adj)))
                         if (poly, cls) in pairs and holds_from <= spec.top]
    assert not hits, f"{len(hits)} candidates past the cap, first (c, edges, vertex, poly) {hits[0]}"
    assert checked == 37155, f"{checked} braces of a DISCOVERY shape checked (want 37155)"


def kernel_walk() -> None:
    """`kernel_braces` lists what the walk over every composition lists
    (`_helpers.reference_kernel_braces`): the same braces in the same
    order, with the same adjacency, group in order and class, up to the
    top sizes, tricyclic 22 and bicyclic 30 edges; tier-1 compares them
    up to 14 and 16.  The walk skips the tuples that decrease inside a
    parallel class, so a slip in its bounds that drops or reorders a
    brace on a larger size shows only here.  Given each `classes` of
    `_helpers.brace_class_filters`, it lists that listing's braces of
    those classes, in the same order; a slip in the sizes or kernels the
    filter skips shows the same way."""
    import _helpers
    from mostar.braces import kernel_braces
    from mostar.verify import BICYCLIC, TRICYCLIC

    for c, spec in ((3, TRICYCLIC), (2, BICYCLIC)):
        sizes = range(spec.top + 1)
        want = _helpers.reference_kernel_braces(c, sizes)
        for name, classes in _helpers.brace_class_filters().items():
            got = kernel_braces(c, sizes, classes)
            for b in sizes:
                rows = [[(g.n, g.adj, group, cls) for g, group, cls in got[b]],
                        [(g.n, g.adj, group, cls) for g, group, cls in want[b]
                         if classes is None or cls in classes]]
                first = next((i for i, (x, y) in enumerate(zip(*rows)) if x != y),
                             min(map(len, rows)))
                assert rows[0] == rows[1], (
                    f"cyclomatic number {c}, {b} edges, classes {name or 'unset'}: "
                    f"{len(rows[0])} braces listed, {len(rows[1])} by the composition "
                    f"walk, first differing at {first}")


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
                                  class_totals, discovery_cap, kernel_walk,
                                  lemma_rows, pendant_rows)}

if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in CHECKS:
        sys.exit(f"usage: python tests/deep.py {{{','.join(CHECKS)}}}")
    CHECKS[sys.argv[1]]()
