"""Correctness gates for the benchmark workloads, and the compute inputs.

Nothing here imports mostar.  Each gate judges a workload's output against
an oracle of its own: the paper's maxima tables, the committed registry and
report files, a reference captured at the seed commit (reference.json), and
a brute-force edge Mostar evaluation written from the definition.  Every
gate returns (attempted, failed, messages); rows the paper gets wrong
(DISCREPANT lemma rules, maximizer-count notes) are findings, not failures.
"""

from __future__ import annotations

import json
import random
from collections import Counter

# Sharp upper bounds as printed in the paper (tricyclic m = 7..12, bicyclic
# m = 5..10).
PAPER_TRICYCLIC_MAX = {7: 12, 8: 23, 9: 36, 10: 53, 11: 72, 12: 96}
PAPER_BICYCLIC_MAX = {5: 4, 6: 12, 7: 22, 8: 34, 9: 48, 10: 66}

PARAMS = ("a1", "a2", "a3", "a4", "a5", "a6")


# -- brute-force oracle ---------------------------------------------------------


def edge_orientations(n: int, edges: list[tuple[int, int]]) -> dict:
    """(mu, mv, eq) for every edge (u, v), u < v, straight from the
    definition: another edge f is closer to u when min(d(u,x), d(u,y)) over
    f = xy is below the same minimum for v; ties count as eq."""
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    dist = []
    for s in range(n):
        d = [-1] * n
        d[s] = 0
        queue = [s]
        for x in queue:
            for y in nbrs[x]:
                if d[y] < 0:
                    d[y] = d[x] + 1
                    queue.append(y)
        if -1 in d:
            raise ValueError("oracle needs a connected graph")
        dist.append(d)
    out = {}
    for e in edges:
        du, dv = dist[e[0]], dist[e[1]]
        mu = mv = eq = 0
        for f in edges:
            if f == e:
                continue
            a = min(du[f[0]], du[f[1]])
            b = min(dv[f[0]], dv[f[1]])
            if a < b:
                mu += 1
            elif b < a:
                mv += 1
            else:
                eq += 1
        out[e] = (mu, mv, eq)
    return out


def edge_mostar(n: int, edges: list[tuple[int, int]]) -> int:
    return sum(abs(mu - mv) for mu, mv, _ in edge_orientations(n, edges).values())


# -- compute inputs ---------------------------------------------------------------


def graph6(n: int, edges: list[tuple[int, int]]) -> str:
    """graph6 line of a graph with n <= 62 vertices."""
    present = set(edges)
    bits = [1 if (i, j) in present else 0 for j in range(n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = [
        int("".join(map(str, bits[k:k + 6])), 2) + 63 for k in range(0, len(bits), 6)
    ]
    return bytes([n + 63] + body).decode("ascii")


def random_connected(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """Sorted edge list of a connected graph with exactly n vertices and m
    edges: a random recursive tree on shuffled labels plus random chords."""
    labels = list(range(n))
    rng.shuffle(labels)
    edges = set()
    for i in range(1, n):
        a, b = labels[i], labels[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    while len(edges) < m:
        a, b = rng.sample(range(n), 2)
        edges.add((min(a, b), max(a, b)))
    return sorted(edges)


def compute_sizes(small: int, large: int) -> list[tuple[int, int]]:
    """The fixed (n, m) mix of the compute workload.  Only the graphs'
    structure depends on the seed, so every seed costs about the same."""
    sizes = []
    for i in range(small):
        n = 8 + i % 9
        sizes.append((n, n - 1 + i % n))
    for i in range(large):
        n = 16 + (7 * i) % 33
        sizes.append((n, 2 * n + (i % 4) * n // 2))
    return sizes


def compute_inputs(seed: int, small: int, large: int) -> list[tuple[int, list]]:
    rng = random.Random(f"perfbench-compute:{seed}")
    return [(n, random_connected(rng, n, m)) for n, m in compute_sizes(small, large)]


# -- gates -------------------------------------------------------------------------


def check_compute(graphs: list[tuple[int, list]], output: str):
    """Every output line must match its input graph, in order, with the
    oracle's per-edge counts and total."""
    lines = output.splitlines()
    messages = []
    failed = abs(len(lines) - len(graphs))
    if failed:
        messages.append(f"{len(lines)} output lines for {len(graphs)} graphs")
    for k, ((n, edges), line) in enumerate(zip(graphs, lines)):
        row = json.loads(line)
        want = edge_orientations(n, edges)
        got = {(e["u"], e["v"]): (e["mu"], e["mv"], e["eq"]) for e in row["edges"]}
        m = len(edges)
        bad = (
            row["graph6"] != graph6(n, edges)
            or got != want
            or row["edge_mostar"] != sum(abs(a - b) for a, b, _ in want.values())
            or any(e["psi"] != abs(e["mu"] - e["mv"]) for e in row["edges"])
            or any(a + b + c != m - 1 for a, b, c in got.values())
        )
        if bad:
            failed += 1
            if len(messages) < 5:
                messages.append(f"compute line {k + 1} ({row['graph6']}) is wrong")
    return len(graphs), failed, messages


def check_atlas(out: dict, registry_text: str, report_text: str,
                ref_registry: str, ref_report: str, reference: dict):
    """Registry and report byte-equal to the committed files, maxima equal
    to the paper tables, class sizes equal to the reference, rows PASS."""
    checks = [
        ("registry differs from the committed families.json",
         registry_text == ref_registry),
        ("report differs from the committed atlas_report.json",
         report_text == ref_report),
    ]
    for kind, table in (("tricyclic", PAPER_TRICYCLIC_MAX),
                        ("bicyclic", PAPER_BICYCLIC_MAX)):
        surveys = out["surveys"][kind]
        counts = reference["atlas"][f"{kind}_counts"]
        for m, best in table.items():
            res = surveys.get(str(m), {})
            checks.append((f"{kind} m={m}: max {res.get('max_value')} != {best}",
                           res.get("max_value") == best))
            checks.append((f"{kind} m={m}: {res.get('graphs_visited')} graphs, "
                           f"reference {counts[str(m)]}",
                           res.get("graphs_visited") == counts[str(m)]))
    rows = out["rows"]
    want_rows = {("tricyclic", m) for m in PAPER_TRICYCLIC_MAX}
    want_rows |= {("bicyclic", m) for m in PAPER_BICYCLIC_MAX}
    checks.append(("verification rows do not cover the tables",
                   {(r["kind"], r["m"]) for r in rows} == want_rows
                   and len(rows) == len(want_rows)))
    for r in rows:
        table = PAPER_TRICYCLIC_MAX if r["kind"] == "tricyclic" else PAPER_BICYCLIC_MAX
        best = table.get(r["m"])
        checks.append((f"{r['kind']} row m={r['m']} is {r['status']}",
                       r["status"] == "PASS" and r["observed_max"] == best
                       and r["expected_max"] == best))
    messages = [msg for msg, ok in checks if not ok]
    return len(checks), len(messages), messages


def _fold(rows: list[dict], region: str | None) -> dict:
    out = {}
    for r in rows:
        if region is not None and r["region"] != region:
            continue
        if r["status"] == "DISCREPANT":
            out[r["lemma"]] = "DISCREPANT"
        elif r["status"] == "MATCH" and out.get(r["lemma"]) != "DISCREPANT":
            out[r["lemma"]] = "MATCH"
        else:
            out.setdefault(r["lemma"], "SKIPPED")
    return out


def _expected_statuses(lemmas_ref: dict, suite_seed: int, key: str) -> dict:
    listed = lemmas_ref["by_seed"][str(suite_seed)][key]
    return {rule: listed.get(rule, "DISCREPANT") for rule in lemmas_ref["rules"]}


def shift_delta(lemmas_ref: dict, calibration: dict, rule: str, params: dict) -> int:
    """Oracle delta of a pendant shift: build the calibrated brace with its
    pendant multiplicities, move the pendants, difference the indices."""
    spec = lemmas_ref["rules"][rule]
    brace = [tuple(e) for e in
             lemmas_ref["braces"][spec["group"]][calibration["realization"]]]
    roles = calibration["roles"]
    before = Counter({roles[i]: params.get(p, 0) for i, p in enumerate(PARAMS[:len(roles)])})
    after = Counter(before)
    for src, dst, name in spec["moves"]:
        k = params.get(name, 0)
        after[roles[src - 1]] -= k
        after[roles[dst - 1]] += k

    def index(pendants: Counter) -> int:
        n = 1 + max(max(e) for e in brace)
        edges = list(brace)
        for v in sorted(pendants):
            for _ in range(pendants[v]):
                edges.append((v, n))
                n += 1
        return edge_mostar(n, edges)

    return index(after) - index(before)


def check_lemmas(report: dict, reference: dict, suite_seed: int, count: int,
                 oracle_rows: int, rng: random.Random):
    """Calibrations and verdicts equal the reference; every row's paper delta
    re-evaluated from the printed formula; MATCH exactly when measured equals
    paper, and then positive; `oracle_rows` sampled measured deltas rebuilt
    by the brute-force oracle."""
    ref = reference["lemmas"]
    rows = report["rows"]
    messages = []
    failed = 0
    for key, got in (("calibrations", report["calibrations"]),
                     ("statuses", report["statuses"]),
                     ("loaded_statuses", report["loaded_statuses"])):
        want = (ref["calibrations"] if key == "calibrations"
                else _expected_statuses(ref, suite_seed, key))
        if got != want:
            failed += 1
            messages.append(f"{key} differ from the reference")
    if report["statuses"] != _fold(rows, None) or \
            report["loaded_statuses"] != _fold(rows, "loaded"):
        failed += 1
        messages.append("statuses are not the fold of the rows")
    per_batch = Counter((r["lemma"], r["region"]) for r in rows)
    if set(per_batch.values()) != {count} or len(per_batch) != 2 * len(ref["rules"]):
        failed += 1
        messages.append(f"rows per rule and region are not all {count}")
    sample = set(rng.sample(range(len(rows)), min(oracle_rows, len(rows))))
    for k, r in enumerate(rows):
        spec = ref["rules"][r["lemma"]]
        params = {p: r["params"].get(p, 0) for p in PARAMS}
        paper = eval(spec["delta"], {"__builtins__": {}}, params)
        measured = r["measured_delta"]
        bad = paper != r["paper_delta"] or measured is None
        if not bad:
            bad = r["status"] != ("MATCH" if measured == paper else "DISCREPANT")
            bad = bad or (r["status"] == "MATCH" and not measured > 0)
        if not bad and k in sample:
            cal = ref["calibrations"][spec["group"]]
            bad = shift_delta(ref, cal, r["lemma"], params) != measured
        if bad:
            failed += 1
            if len(messages) < 5:
                messages.append(f"lemma row {k} ({r['lemma']} {r['params']}) is wrong")
    return len(rows) + 4, failed, messages
