"""Write reference.json from the mostar code in ../src.

Run once, at the commit whose outputs the gates should hold later commits
to (the reference in the repository was captured at the seed commit
be5b0e6):

    python3 perfbench/capture_reference.py

Captures the class sizes of the atlas surveys, the lemma calibrations, the
per-suite-seed verdicts, the rule formulas (as Python expressions, checked
against the rule table) and the brace edge lists the lemma oracle rebuilds
configurations from.  Takes about three minutes on two cores.
"""

from __future__ import annotations

import json
import random
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from mostar import shifts  # noqa: E402
from mostar.enumeration import bicyclic_task, survey, tricyclic_task  # noqa: E402

from run import LEMMA_COUNT, SUITE_SEEDS  # noqa: E402


def main() -> None:
    atlas = {
        "tricyclic_counts": {
            str(m): survey(tricyclic_task(m), workers=2).result.graphs_visited
            for m in range(7, 13)
        },
        "bicyclic_counts": {
            str(m): survey(bicyclic_task(m), workers=2).result.graphs_visited
            for m in range(5, 11)
        },
    }
    rules = {}
    rng = random.Random(0)
    for rid, rule in sorted(shifts.RULES.items()):
        expr = re.sub(r"(\d)\(", r"\1*(", rule.delta_str)
        for _ in range(200):
            p = {k: rng.randint(0, 12) for k in ("a1", "a2", "a3", "a4", "a5", "a6")}
            assert eval(expr, {"__builtins__": {}}, p) == rule.delta(p), rid
        rules[rid] = {"group": rule.group, "delta": expr,
                      "moves": [list(mv) for mv in rule.moves]}
    by_seed = {}
    calibrations = None
    for seed in range(SUITE_SEEDS):
        d = shifts.run_shift_suite(count=LEMMA_COUNT, seed=seed).to_dict()
        if calibrations is None:
            calibrations = d["calibrations"]
        assert d["calibrations"] == calibrations
        by_seed[str(seed)] = {
            key: {r: s for r, s in sorted(d[key].items()) if s != "DISCREPANT"}
            for key in ("statuses", "loaded_statuses")
        }
    braces = {
        gid: [[list(e) for e in b.edges()] for b in group.realizations]
        for gid, group in sorted(shifts.GROUPS.items())
    }
    reference = {
        "atlas": atlas,
        "lemmas": {
            "count": LEMMA_COUNT,
            "calibrations": calibrations,
            "by_seed": by_seed,
            "rules": rules,
            "braces": braces,
        },
    }
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
