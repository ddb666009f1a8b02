"""One run of one workload, in a fresh interpreter.

    python3 child.py SPEC.json

run.py writes SPEC.json and starts this script with PYTHONPATH pointing at
the checkout's src/.  Set-up (import mostar, registry load, input file
ready) ends at the "ready" mark; then the workload runs through public
mostar functions, optionally under spans, and the result goes to
SPEC["out"] as JSON.  Nothing is cached between runs: users pay imports,
pool start-up and the calibration cache on every CLI call, and so does
each run here.
"""

import json
import os
import resource
import signal
import sys
import time
from pathlib import Path


class SpeedProbe:
    """Samples how fast this machine runs Python while a workload runs.

    The machine shares its cores with other tenants, and their speed drifts
    by tens of percent within minutes.  Every PERIOD_S of wall time a fixed
    kernel (the benchmark's brute-force oracle on a fixed graph, so the same
    mix of list, dict and integer work as the program) runs on SIGALRM and
    its thread CPU time is kept.  run.py scales measured times by
    REF_S / mean(samples), the kernel's time at the reference speed.  The
    probe's own time is subtracted from the workload's.  Processes forked
    while the probe runs (the atlas pool) sample too, and write each sample
    to a speed-<pid> file in the working directory at once, since the pool
    ends them with a signal.
    """

    PERIOD_S = 0.25

    def __init__(self):
        import random  # imported here, after the set-up mark

        import gates

        self._edges = gates.random_connected(random.Random(0), 24, 48)
        self._kernel = gates.edge_orientations
        self.samples: list[float] = []
        self.wall = 0.0
        self.cpu = 0.0
        self._log = None

    def sample(self, *_) -> None:
        w, c = time.perf_counter(), time.thread_time()
        self._kernel(24, self._edges)
        cpu = time.thread_time() - c
        if self._log is not None:
            os.write(self._log, f"{cpu!r}\n".encode())
            return
        self.samples.append(cpu)
        self.cpu += cpu
        self.wall += time.perf_counter() - w

    def _start_in_fork(self) -> None:
        self._log = os.open(f"speed-{os.getpid()}", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def __enter__(self):
        self.sample()
        self.wall = self.cpu = 0.0
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        os.register_at_fork(after_in_child=self._start_in_fork)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for path in Path().glob("speed-*"):
            forked = [float(x) for x in path.read_text().split()]
            self.samples += forked
            self.cpu += sum(forked)
            path.unlink()


def run_atlas(spec, registry):
    from mostar import run_atlas, verify_bicyclic, verify_tricyclic

    result = run_atlas(tri_max_size=12, bi_max_size=10, workers=spec["workers"])
    result.registry.save(spec["registry_out"])
    Path(spec["report_out"]).write_text(
        json.dumps(result.report.to_dict(), indent=2, sort_keys=True) + "\n")
    classes = (("tricyclic", verify_tricyclic, result.tri_surveys),
               ("bicyclic", verify_bicyclic, result.bi_surveys))
    rows = [
        dict(r.to_dict(), kind=kind)
        for kind, verify, surveys in classes
        for r in verify(sorted(surveys), registry=registry, surveys=surveys)
    ]
    return {
        "rows": rows,
        "surveys": {kind: {str(m): s.result.to_dict() for m, s in surveys.items()}
                    for kind, _, surveys in classes},
    }


def run_lemmas(spec, registry):
    from mostar import run_shift_suite

    return {"report": run_shift_suite(count=spec["count"], seed=spec["suite_seed"]).to_dict()}


def run_compute(spec, registry):
    from mostar import cli

    return {"exit": cli.main(["compute", spec["input"], "--output", spec["output"]])}


RUNNERS = {"atlas": run_atlas, "lemmas": run_lemmas, "compute": run_compute}


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text())
    import mostar
    from mostar import cli, shifts  # noqa: F401  (the CLI entry point's imports)
    from mostar.families import FamilyRegistry

    registry = None
    if spec["workload"] == "atlas":
        registry = FamilyRegistry.load(spec["registry_in"])
    elif spec["workload"] == "compute":
        os.stat(spec["input"])
    result = {"ready": time.monotonic(), "mostar_file": mostar.__file__}
    probe = SpeedProbe()
    if spec["setup_only"]:
        for _ in range(5):
            probe.sample()
    else:
        calibrate = shifts.calibrate
        spans = None
        if spec["spans"]:
            from spans import Spans

            spans = Spans()
            spans.install(spec["spans"])
        self0 = resource.getrusage(resource.RUSAGE_SELF)
        kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        with probe:
            t0 = time.perf_counter()
            out = RUNNERS[spec["workload"]](spec, registry)
            wall = time.perf_counter() - t0
        self1 = resource.getrusage(resource.RUSAGE_SELF)
        kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = sum(getattr(b, f) - getattr(a, f)
                  for a, b in ((self0, self1), (kids0, kids1))
                  for f in ("ru_utime", "ru_stime"))
        result.update(
            out=out,
            wall_s=wall - probe.wall,
            cpu_s=cpu - probe.cpu,
            peak_rss_mb=max(self1.ru_maxrss, kids1.ru_maxrss) / 1024,
            calibrate_misses=calibrate.cache_info().misses,
            spans=spans.rows() if spans else [],
        )
    result["speed_probe"] = probe.samples
    Path(spec["out"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
