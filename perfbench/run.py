"""Benchmark of the mostar verifier: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload atlas|lemmas|compute --seed N \
        --seconds S --trace 0|1 [--workers W]

Run from anywhere inside a checkout; the program is taken from the
checkout's src/ (no install, nothing to build).  Every run of a workload is
a fresh interpreter (child.py), so each pays what a CLI call pays.

Workloads:
  atlas    run_atlas(tri_max_size=12, bi_max_size=10, workers=W), then the
           verify_tricyclic/verify_bicyclic rows from the same surveys.  The
           input is fixed; the seed is recorded and not used.
  lemmas   run_shift_suite(count=20, seed=seed % 64).
  compute  cli.main(["compute", FILE, "--output", OUT]) on seeded random
           connected graphs of a fixed (n, m) mix (gates.compute_sizes).

--trace 0 repeats the workload for about --seconds (at least once) and
reports medians of wall_s, cpu_s, items_per_s and setup_s, and the largest
peak_rss_mb.  --trace 1 makes one untraced workers=1 run, one run under
spans (spans.py) with workers=1, and for atlas one untraced workers=W run,
and reports the per-layer metrics.

Times are in reference seconds: measured seconds times the machine's speed
factor during that run, REF_S over the mean time of child.SpeedProbe's
kernel.  On a machine whose cores are shared with other tenants the speed
drifts by tens of percent within minutes; the factor takes that out.  The
measured values and factors are in the environment block.

Every output is judged by gates.py.  The last stdout line is the result
object; the line before it is the environment block.  Exit 0 when every
gate passes, 1 when one fails, 2 on a usage or set-up error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gates
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("atlas", "lemmas", "compute")
LEMMA_COUNT = 20
SUITE_SEEDS = 64          # lemma suite seeds with a captured reference
LEMMA_ORACLE_ROWS = 100   # lemma rows whose measured delta the oracle rebuilds
COMPUTE_SMALL, COMPUTE_LARGE = 1000, 60
SETUP_PROBES = 5
REF_S = 0.0016            # child.SpeedProbe's kernel time at the reference speed
DEADLINE_S = 170          # a run must finish within 180 s


class SetupError(Exception):
    """The checkout cannot be benchmarked (missing program or data)."""


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = root / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else ref[5:]


class Bench:
    def __init__(self, args, workers: int, work: Path):
        self.args = args
        self.workers = workers
        self.work = work
        self.start = time.monotonic()
        self.spawned = 0
        self.setups: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.verdicts: dict[str, tuple[int, int, list]] = {}
        self.runs: list[dict] = []
        self.reference = json.loads((HERE / "reference.json").read_text())
        self.suite_seed = args.seed % SUITE_SEEDS
        if args.workload == "compute":
            self.graphs = gates.compute_inputs(args.seed, COMPUTE_SMALL, COMPUTE_LARGE)
            (work / "graphs.g6").write_text(
                "".join(gates.graph6(n, e) + "\n" for n, e in self.graphs))
        if args.workload == "atlas":
            self.ref_registry = (ROOT / "families.json").read_text()
            self.ref_report = (ROOT / "atlas_report.json").read_text()

    # -- children ------------------------------------------------------------

    def spawn(self, setup_only=False, workers=1, spans_targets=()) -> dict:
        k = self.spawned = self.spawned + 1
        spec = {
            "workload": self.args.workload,
            "setup_only": setup_only,
            "workers": workers,
            "spans": list(spans_targets),
            "count": LEMMA_COUNT,
            "suite_seed": self.suite_seed,
            "out": str(self.work / f"result{k}.json"),
            "registry_in": str(ROOT / "families.json"),
            "registry_out": str(self.work / f"families{k}.json"),
            "report_out": str(self.work / f"atlas_report{k}.json"),
            "input": str(self.work / "graphs.g6"),
            "output": str(self.work / f"compute{k}.jsonl"),
        }
        spec_path = self.work / f"spec{k}.json"
        spec_path.write_text(json.dumps(spec))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        remaining = DEADLINE_S - (time.monotonic() - self.start)
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path)],
            cwd=self.work, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=max(remaining, 1))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RuntimeError(f"{self.args.workload} run exceeded the deadline")
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)  # stray pool workers
            except ProcessLookupError:
                pass
        if proc.returncode != 0:
            raise RuntimeError(f"child failed ({proc.returncode}): {err.decode()[-2000:]}")
        result = json.loads(Path(spec["out"]).read_text())
        if not Path(result["mostar_file"]).resolve().is_relative_to(ROOT / "src"):
            raise SetupError(f"mostar imported from {result['mostar_file']}")
        speed = REF_S / statistics.mean(result["speed_probe"])
        result["speed"] = speed
        result["setup_s"] = (result["ready"] - t0) * speed
        self.setups.append(result["setup_s"])
        if not setup_only:
            result["wall_s_measured"] = result["wall_s"]
            result["wall_s"] *= speed
            result["cpu_s"] *= speed
            result["items"], result["digest"] = self.judge(result, spec)
        return result

    # -- correctness -----------------------------------------------------------

    def judge(self, result: dict, spec: dict) -> tuple[int, str]:
        """Gate one run's output; identical outputs reuse the verdict."""
        out = result["out"]
        wl = self.args.workload
        if wl == "atlas":
            registry = Path(spec["registry_out"]).read_text()
            report = Path(spec["report_out"]).read_text()
            payload = registry + report + json.dumps(out, sort_keys=True)
            items = sum(r["graphs_visited"] for kind in out["surveys"].values()
                        for r in kind.values())
        elif wl == "lemmas":
            payload = json.dumps(out, sort_keys=True)
            items = len(out["report"]["rows"])
            if result["calibrate_misses"] != len(self.reference["lemmas"]["braces"]):
                raise RuntimeError(
                    f"calibrate cache missed {result['calibrate_misses']} times; "
                    "a run must start from a cold cache")
        else:
            output = Path(spec["output"])
            payload = output.read_text() if output.exists() else ""
            items = len(payload.splitlines())
            self.attempted += 1
            if out["exit"] != 0:
                self.failed += 1
                self.messages.append(f"mostar compute exited {out['exit']}")
        digest = hashlib.sha256(payload.encode()).hexdigest()
        verdict = self.verdicts.get(digest)
        if verdict is None:
            if wl == "atlas":
                verdict = gates.check_atlas(out, registry, report, self.ref_registry,
                                            self.ref_report, self.reference)
            elif wl == "lemmas":
                verdict = gates.check_lemmas(
                    out["report"], self.reference, self.suite_seed, LEMMA_COUNT,
                    LEMMA_ORACLE_ROWS, random.Random(f"perfbench-lemmas:{self.args.seed}"))
            else:
                verdict = gates.check_compute(self.graphs, payload)
            self.verdicts[digest] = verdict
            self.messages += verdict[2]
        self.attempted += verdict[0]
        self.failed += verdict[1]
        return items, digest

    # -- modes -----------------------------------------------------------------

    def timed(self) -> dict:
        self.spawn(setup_only=True)          # writes bytecode caches; not measured
        self.setups.clear()
        for _ in range(SETUP_PROBES):
            self.spawn(setup_only=True)
        runs = []
        begin = time.monotonic()
        while True:
            t0 = time.monotonic()
            runs.append(self.spawn(workers=self.workers))
            now = time.monotonic()
            last = now - t0
            # stop nearest to --seconds, and never risk the deadline
            if now - begin + last / 2 >= self.args.seconds or \
                    now - self.start + 2 * last > DEADLINE_S:
                break
        self.runs = runs
        return {
            "wall_s": (statistics.median(r["wall_s"] for r in runs), "s"),
            "cpu_s": (statistics.median(r["cpu_s"] for r in runs), "s"),
            "items_per_s": (statistics.median(r["items"] / r["wall_s"] for r in runs), "1/s"),
            "setup_s": (statistics.median(self.setups), "s"),
            "peak_rss_mb": (max(r["peak_rss_mb"] for r in runs), "MB"),
        }

    def traced(self) -> dict:
        self.spawn(setup_only=True)
        survey_only = ("enumeration.survey",) if self.args.workload == "atlas" else ()
        plain = self.spawn(workers=1, spans_targets=survey_only)
        traced = self.spawn(workers=1, spans_targets=spans.TARGETS)
        runs = [plain, traced]
        scaling = 0.0
        if self.args.workload == "atlas":
            pooled = self.spawn(workers=self.workers, spans_targets=survey_only)
            runs.append(pooled)
            scaling = (spans.total(plain["spans"], "enumeration.survey", "s") * plain["speed"]) / (
                self.workers * spans.total(pooled["spans"], "enumeration.survey", "s") * pooled["speed"])
        if len({r["digest"] for r in runs}) != 1:
            self.failed += 1
            self.messages.append("outputs differ between traced, untraced and pooled runs")
        self.runs = runs
        graphs = runs[0]["items"] if self.args.workload == "atlas" else 0
        metrics = spans.layer_metrics(traced["spans"], graphs, scaling,
                                      traced["wall_s"] / plain["wall_s"] - 1)
        metrics["shifts.calibrate.misses"] = (
            traced["calibrate_misses"] if self.args.workload == "lemmas" else 0, "count")
        return {k: (v * traced["speed"] if u == "s" else v, u)
                for k, (v, u) in metrics.items()}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workers", type=int,
                   help="atlas pool size (default and maximum: the usable cores)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    workers = nproc if args.workers is None else args.workers
    if not 1 <= workers <= nproc:
        print(f"error: --workers must be within 1..{nproc}", file=sys.stderr)
        return 2
    needed = [ROOT / "src" / "mostar" / "__init__.py", HERE / "reference.json"]
    if args.workload == "atlas":
        needed += [ROOT / "families.json", ROOT / "atlas_report.json"]
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a mostar checkout, missing {missing}", file=sys.stderr)
        return 2
    env = {
        "nproc": nproc,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "workers": workers,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_start": os.getloadavg(),
    }
    if args.workload == "lemmas":
        env["suite_seed"] = args.seed % SUITE_SEEDS
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        bench = Bench(args, workers, work)
        metrics = bench.traced() if args.trace else bench.timed()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.exists() and not any(work.parent.iterdir()):
            work.parent.rmdir()
    env.update(
        loadavg_end=os.getloadavg(),
        runs=[{k: r[k] for k in ("wall_s", "wall_s_measured", "speed", "cpu_s",
                                  "setup_s", "peak_rss_mb", "items")}
              for r in bench.runs],
        setup_samples=bench.setups,
        fail_frac=bench.failed / bench.attempted,
        messages=bench.messages,
    )
    for msg in bench.messages:
        print(f"gate: {msg}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if bench.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
