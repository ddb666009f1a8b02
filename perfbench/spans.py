"""Call spans at the layer boundaries of the mostar package.

Modules bind the names they import (`from .canon import canon`), so a span
wrapper goes into every mostar namespace that binds a target function, not
only the defining module.  Each wrapper records calls, inclusive seconds
and self seconds (inclusive minus the inclusive time of wrapped callees),
keyed by the target and by the layer of its caller, read from the calling
frame's module.  Callers outside the package count as layer "bench".
"""

from __future__ import annotations

import importlib
import sys
import time

LAYERS = ("graphs", "canon", "indices", "braces", "enumeration", "families",
          "shifts", "verify", "cli")

TARGETS = (
    "graphs.parse_graph6", "graphs.is_connected", "graphs.all_pairs_distances",
    "canon.canon", "canon.pair_orbit_reps", "canon.canonical_form",
    "indices.edge_mostar", "indices.edge_report", "indices.mostar_summary",
    "braces.classify",
    "enumeration.survey",
    "families.discover_families",
    "shifts.run_shift_suite", "shifts.calibrate", "shifts.measured_delta",
    "verify.run_atlas", "verify.verify_tricyclic", "verify.verify_bicyclic",
    "cli.main",
)


class Spans:
    def __init__(self):
        # (target, caller layer) -> [calls, inclusive s, self s]
        self.stats: dict[tuple[str, str], list] = {}
        self._stack = [[0.0]]
        self._replaced: list[tuple] = []

    def install(self, targets=TARGETS) -> None:
        for layer in LAYERS:
            importlib.import_module(f"mostar.{layer}")
        modules = [mod for name, mod in list(sys.modules.items())
                   if name.startswith("mostar.") and mod is not None]
        modules.append(sys.modules["mostar"])
        for target in targets:
            layer, name = target.split(".")
            fn = getattr(sys.modules[f"mostar.{layer}"], name)
            span = self._wrap(target, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, span)
                        self._replaced.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in self._replaced:
            setattr(mod, attr, fn)
        self._replaced.clear()

    def _wrap(self, target: str, fn):
        stats, stack = self.stats, self._stack
        clock, frame = time.perf_counter, sys._getframe

        def span(*args, **kwargs):
            caller = frame(1).f_globals.get("__name__", "")
            layer = caller[7:] if caller.startswith("mostar.") else "bench"
            children = [0.0]
            stack.append(children)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                rec = stats.get((target, layer))
                if rec is None:
                    rec = stats[(target, layer)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - children[0]

        return span

    def rows(self) -> list[list]:
        return [[t, c, *rec] for (t, c), rec in sorted(self.stats.items())]


def total(rows, target: str, column: str, caller: str | None = None) -> float:
    """Sum of `column` ("calls", "s" or "self_s") over the span rows of a
    target, or of a whole layer when `target` has no dot."""
    col = {"calls": 2, "s": 3, "self_s": 4}[column]
    return sum(
        r[col] for r in rows
        if (r[0] == target or r[0].split(".")[0] == target)
        and (caller is None or r[1] == caller)
    )


def layer_metrics(rows, graphs: int, scaling_eff: float, overhead: float) -> dict:
    """Per-layer metrics of one traced run, as (value, unit) pairs.  A layer
    a workload never enters reads 0."""
    s, count = "s", "count"
    canon_calls = total(rows, "canon.canon", "calls", caller="enumeration")
    out = {
        "enumeration.survey.s": (total(rows, "enumeration.survey", "s"), s),
        "enumeration.graphs": (graphs, count),
        "enumeration.canon_per_graph": (canon_calls / graphs if graphs else 0.0, "ratio"),
        "enumeration.scaling_eff": (scaling_eff, "ratio"),
    }
    for target in ("canon.canon", "canon.pair_orbit_reps", "canon.canonical_form",
                   "indices.edge_mostar", "indices.mostar_summary",
                   "graphs.parse_graph6", "braces.classify"):
        out[f"{target}.calls"] = (total(rows, target, "calls"), count)
        out[f"{target}.self_s"] = (total(rows, target, "self_s"), s)
    for caller in ("enumeration", "shifts", "families"):
        out[f"indices.edge_mostar.calls.{caller}"] = (
            total(rows, "indices.edge_mostar", "calls", caller), count)
        out[f"indices.edge_mostar.self_s.{caller}"] = (
            total(rows, "indices.edge_mostar", "self_s", caller), s)
    for target in ("indices.edge_report", "graphs.is_connected",
                   "graphs.all_pairs_distances"):
        out[f"{target}.calls"] = (total(rows, target, "calls"), count)
    calibrate = total(rows, "shifts.calibrate", "s")
    out.update({
        "cli.main.self_s": (total(rows, "cli.main", "self_s"), s),
        "shifts.calibrate.s": (calibrate, s),
        "shifts.measured_delta.calls": (total(rows, "shifts.measured_delta", "calls"), count),
        "shifts.measured_delta.s": (total(rows, "shifts.measured_delta", "s"), s),
        "shifts.verify.s": (total(rows, "shifts.run_shift_suite", "s") - calibrate, s),
        "families.discover_families.s": (total(rows, "families.discover_families", "s"), s),
        "verify.rows.s": (total(rows, "verify.verify_tricyclic", "s")
                          + total(rows, "verify.verify_bicyclic", "s"), s),
        "trace.overhead_frac": (overhead, "ratio"),
    })
    for layer in LAYERS:
        out[f"{layer}.calls"] = (total(rows, layer, "calls"), count)
        if layer != "cli":
            out[f"{layer}.self_s"] = (total(rows, layer, "self_s"), s)
    return out
