"""Each gate accepts a right output and rejects a deliberately wrong one.

    python3 -m pytest perfbench/tests -q

The outputs are built here, from the oracle and the reference; src/ is
imported only by the spans test and never modified.
"""

import copy
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gates  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())


# -- oracle and inputs ----------------------------------------------------------


def test_oracle_closed_forms():
    for m in range(1, 9):
        star = [(0, i) for i in range(1, m + 1)]
        assert gates.edge_mostar(m + 1, star) == m * (m - 1)
        path = [(i, i + 1) for i in range(m)]
        assert gates.edge_mostar(m + 1, path) == sum(
            abs(m - 2 * i + 1) for i in range(1, m + 1))
    for n in range(3, 9):
        cycle = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
        assert gates.edge_mostar(n, cycle) == 0


def test_graph6_and_random_graphs():
    assert gates.graph6(3, [(0, 1), (0, 2), (1, 2)]) == "Bw"
    assert gates.graph6(4, [(i, j) for j in range(4) for i in range(j)]) == "C~"
    rng = random.Random(1)
    for n, m in gates.compute_sizes(20, 6):
        edges = gates.random_connected(rng, n, m)
        assert len(edges) == m and all(0 <= u < v < n for u, v in edges)
        gates.edge_orientations(n, edges)          # raises when disconnected
    assert gates.compute_inputs(5, 9, 2) == gates.compute_inputs(5, 9, 2)
    assert gates.compute_inputs(5, 9, 2) != gates.compute_inputs(6, 9, 2)


# -- compute --------------------------------------------------------------------


def compute_output(graphs):
    lines = []
    for n, edges in graphs:
        counts = gates.edge_orientations(n, edges)
        lines.append(json.dumps({
            "graph6": gates.graph6(n, edges),
            "edge_mostar": sum(abs(a - b) for a, b, _ in counts.values()),
            "edges": [{"u": u, "v": v, "mu": a, "mv": b, "eq": c, "psi": abs(a - b)}
                      for (u, v), (a, b, c) in counts.items()],
        }, sort_keys=True))
    return lines


def test_compute_gate():
    graphs = gates.compute_inputs(0, 12, 2)
    lines = compute_output(graphs)
    assert gates.check_compute(graphs, "\n".join(lines))[:2] == (14, 0)

    def broken(k, edit):
        out = list(lines)
        row = json.loads(out[k])
        edit(row)
        out[k] = json.dumps(row)
        return gates.check_compute(graphs, "\n".join(out))[1]

    assert broken(3, lambda r: r.update(edge_mostar=r["edge_mostar"] + 2)) == 1
    assert broken(0, lambda r: r["edges"][0].update(mu=r["edges"][0]["mu"] + 1)) == 1
    assert broken(5, lambda r: r["edges"][1].update(eq=r["edges"][1]["eq"] - 1)) == 1
    assert broken(7, lambda r: r["edges"].pop()) == 1
    assert broken(13, lambda r: r.update(graph6="Bw")) == 1
    assert gates.check_compute(graphs, "\n".join(lines[:-1]))[1] == 1


# -- atlas ----------------------------------------------------------------------


def atlas_output():
    surveys, rows = {}, []
    for kind, table in (("tricyclic", gates.PAPER_TRICYCLIC_MAX),
                        ("bicyclic", gates.PAPER_BICYCLIC_MAX)):
        counts = REFERENCE["atlas"][f"{kind}_counts"]
        surveys[kind] = {str(m): {"max_value": v, "graphs_visited": counts[str(m)]}
                         for m, v in table.items()}
        rows += [{"kind": kind, "m": m, "status": "PASS", "observed_max": v,
                  "expected_max": v} for m, v in table.items()]
    return {"surveys": surveys, "rows": rows}


def test_atlas_gate():
    reg, rep = (ROOT / "families.json").read_text(), (ROOT / "atlas_report.json").read_text()

    def failed(out, registry=reg, report=rep):
        return gates.check_atlas(out, registry, report, reg, rep, REFERENCE)[1]

    good = atlas_output()
    assert failed(good) == 0
    assert failed(good, registry=reg.replace("A0", "A9", 1)) == 1
    assert failed(good, report=rep + " ") == 1
    for edit in (
        lambda o: o["surveys"]["tricyclic"]["12"].update(max_value=95),
        lambda o: o["surveys"]["bicyclic"]["9"].update(graphs_visited=1),
        lambda o: o["rows"][2].update(status="FAIL"),
        lambda o: o["rows"][7].update(observed_max=0),
        lambda o: o["rows"].pop(),
    ):
        bad = copy.deepcopy(good)
        edit(bad)
        assert failed(bad) >= 1


# -- lemmas ---------------------------------------------------------------------


def lemma_report(count=2, seed=0):
    """A self-consistent report built with the oracle, and a reference whose
    verdicts for suite seed 0 are the report's own."""
    ref = REFERENCE["lemmas"]
    rng = random.Random(seed)
    rows = []
    for rule, spec in sorted(ref["rules"].items()):
        cal = ref["calibrations"][spec["group"]]
        for region in ("loaded", "general"):
            done = 0
            while done < count:
                params = {p: rng.randint(0, 4) for p in gates.PARAMS[:len(cal["roles"])]}
                for _, _, name in spec["moves"]:
                    params[name] = max(params[name], 1)
                paper = eval(spec["delta"], {"__builtins__": {}}, dict.fromkeys(gates.PARAMS, 0) | params)
                if paper <= 0:
                    continue
                measured = gates.shift_delta(ref, cal, rule, params)
                rows.append({"lemma": rule, "region": region,
                             "params": {k: v for k, v in params.items() if v},
                             "measured_delta": measured, "paper_delta": paper,
                             "status": "MATCH" if measured == paper else "DISCREPANT"})
                done += 1
    report = {"rows": rows, "calibrations": copy.deepcopy(ref["calibrations"]),
              "statuses": gates._fold(rows, None),
              "loaded_statuses": gates._fold(rows, "loaded")}
    reference = copy.deepcopy(REFERENCE)
    reference["lemmas"]["by_seed"]["0"] = {
        key: {r: s for r, s in report[key].items() if s != "DISCREPANT"}
        for key in ("statuses", "loaded_statuses")}
    return report, reference


def test_lemmas_gate():
    report, reference = lemma_report()

    def failed(rep, ref=reference):
        return gates.check_lemmas(rep, ref, 0, 2, len(rep["rows"]), random.Random(0))[1]

    assert failed(report) == 0

    def broken(edit):
        bad = copy.deepcopy(report)
        edit(bad)
        return failed(bad)

    match = next(k for k, r in enumerate(report["rows"]) if r["status"] == "MATCH")
    disc = next(k for k, r in enumerate(report["rows"]) if r["status"] == "DISCREPANT")
    assert broken(lambda r: r["rows"][match].update(measured_delta=r["rows"][match]["measured_delta"] + 1)) >= 1
    assert broken(lambda r: r["rows"][disc].update(status="MATCH")) >= 1
    assert broken(lambda r: r["rows"][disc].update(paper_delta=r["rows"][disc]["paper_delta"] + 2)) >= 1
    assert broken(lambda r: r["rows"][disc].update(measured_delta=r["rows"][disc]["measured_delta"] + 3)) >= 1
    assert broken(lambda r: r["calibrations"]["L3.6"].update(roles=[1, 0, 2, 3, 4])) >= 1
    rule = report["rows"][disc]["lemma"]
    assert broken(lambda r: r["statuses"].update({rule: "MATCH"})) >= 1
    assert broken(lambda r: r["loaded_statuses"].update({rule: "SKIPPED"})) >= 1
    assert broken(lambda r: r["rows"].pop()) >= 1


def test_reference_is_seed_dependent_only_where_captured():
    by_seed = REFERENCE["lemmas"]["by_seed"]
    assert sorted(map(int, by_seed)) == list(range(64))
    assert by_seed["0"]["loaded_statuses"] == {"L3.2b": "MATCH", "L3.6a": "MATCH"}


# -- spans and the command line ---------------------------------------------------


def test_spans_count_calls_by_caller():
    sys.path.insert(0, str(ROOT / "src"))
    import mostar
    import spans

    original = mostar.canonical_form
    s = spans.Spans()
    s.install(("canon.canon", "canon.canonical_form"))
    try:
        mostar.canonical_form(mostar.cycle(6))
        mostar.canonical_form(mostar.path(5))
    finally:
        s.uninstall()
    rows = {(t, c): (calls, incl, own) for t, c, calls, incl, own in s.rows()}
    assert rows[("canon.canonical_form", "bench")][0] == 2
    assert rows[("canon.canon", "canon")][0] == 2
    form = rows[("canon.canonical_form", "bench")]
    assert 0 <= form[2] <= form[1]
    assert form[1] - form[2] == pytest.approx(rows[("canon.canon", "canon")][1])
    assert mostar.canonical_form is original is sys.modules["mostar.canon"].canonical_form


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=60)


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "--workload", "compute", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode not in (0, 1) and proc.stdout == ""


def test_refuses_more_workers_than_cores():
    proc = run_bench(ROOT, "--workload", "atlas", "--seed", "1", "--seconds", "1",
                     "--trace", "0", "--workers", str(len(os.sched_getaffinity(0)) + 1))
    assert proc.returncode == 2 and proc.stdout == ""
