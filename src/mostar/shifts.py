"""Pendant-shift rules and their exact index deltas.

A shift detaches k pendant edges from one vertex and reattaches them at
another; the named rules (L3.2a .. L3.8b) each pair a specific brace,
a vertex labeling v1..vK carrying pendant multiplicities a1..aK, a shift,
and a closed-form prediction for the resulting edge-Mostar difference.

The figure assigning roles v_i to brace vertices is unavailable, so the
roles are recovered by calibration: every automorphism-inequivalent
assignment (and, where the sorted path lengths admit several brace
realizations, every realization) is probed against the rule's delta
expression; the assignment reproducing it exactly is kept.  A rule no
assignment satisfies is reported DISCREPANT together with the exactly
interpolated measured delta, never silently dropped.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from .braces import subdivision
from .graphs import Graph, GraphError, with_pendants
from .indices import edge_mostar

MATCH = "MATCH"
DISCREPANT = "DISCREPANT"
SKIPPED = "SKIPPED"


# -- rule table ---------------------------------------------------------------


PARAMS = ("a1", "a2", "a3", "a4", "a5", "a6")
_NO_BUILTINS = {"__builtins__": {}}


def _compile(expr: str):
    """Compile a rule formula once; it may read only the names a1..a6."""
    code = compile(expr, expr, "eval")
    if not set(code.co_names) <= set(PARAMS):
        raise ValueError(f"{expr!r} reads names outside {PARAMS}")
    return code


@dataclass(frozen=True)
class ShiftRule:
    id: str
    group: str                                  # shared brace + labeling
    moves: tuple[tuple[int, int, str], ...]     # (source role, target role, count param)
    live: tuple[str, ...]                       # params allowed to be nonzero
    conditions: tuple[str, ...]                 # side conditions, all must hold
    delta_str: str                              # predicted edge-Mostar difference

    def __post_init__(self):
        # the printed formulas are Python expressions in a1..a6, evaluated
        # with no builtins
        check = " and ".join(f"({c})" for c in self.conditions)
        object.__setattr__(self, "_check", _compile(check))
        object.__setattr__(self, "_delta", _compile(self.delta_str))

    def check(self, p: dict[str, int]) -> bool:
        return eval(self._check, _NO_BUILTINS, p)

    def delta(self, p: dict[str, int]) -> int:
        return eval(self._delta, _NO_BUILTINS, p)


def _r(id, group, moves, live, conditions, delta_str) -> ShiftRule:
    return ShiftRule(id, group, tuple(moves), tuple(live), tuple(conditions), delta_str)


RULES: dict[str, ShiftRule] = {r.id: r for r in [
    _r("L3.2a", "L3.2", [(2, 1, "a2"), (4, 3, "a4")], ("a1", "a2", "a3", "a4", "a5"),
       ("a1+a3 >= a2+a4", "a2+a4 >= 1"), "2*(a2+a3+a4+a5)-2"),
    _r("L3.2b", "L3.2", [(5, 3, "a5")], ("a1", "a3", "a5"), ("a5 >= 1",), "6*a5"),
    _r("L3.2c", "L3.2", [(1, 3, "a1")], ("a1", "a3"), ("a1 >= 1",), "5*a1"),

    _r("L3.3a", "L3.3", [(3, 2, "a3"), (5, 4, "a5")], ("a1", "a2", "a3", "a4", "a5"),
       ("a2+a4 >= a3+a5", "a3+a5 >= 1", "a1 < a2+3*a3+a5-3"),
       "2*a2+6*a3+2*a5-2*a1-6"),
    _r("L3.3b", "L3.3", [(4, 1, "a4")], ("a1", "a2", "a4"), ("a4 >= 1",), "3*a4"),
    _r("L3.3c", "L3.3", [(2, 1, "a2")], ("a1", "a2"), ("a2 >= 1",), "2*a2"),
    _r("L3.3d", "L3.3", [(1, 2, "a1")], ("a1", "a2"), ("a1 > 6-2*a2",), "a1+2*a2-6"),

    _r("L3.4a", "L3.4", [(6, 1, "a6")], ("a1", "a2", "a3", "a4", "a5", "a6"),
       ("a6 >= 1",), "11*a6"),
    _r("L3.4b", "L3.4", [(3, 2, "a3"), (5, 4, "a5")], ("a1", "a2", "a3", "a4", "a5"),
       ("a2+a3 > a1",), "2*a2+2*a3-2*a1"),
    _r("L3.4c", "L3.4", [(2, 1, "a2"), (4, 1, "a4")], ("a1", "a2", "a4"),
       ("a2+a4 >= 1",), "5*a2+7*a4"),

    _r("L3.5a", "L3.5", [(5, 1, "a5"), (6, 1, "a6")],
       ("a1", "a2", "a3", "a4", "a5", "a6"), ("a6 >= 1",), "2*a3+4*a5+7*a6-2*a2-2"),
    _r("L3.5b", "L3.5", [(3, 1, "a3"), (4, 2, "a4")], ("a1", "a2", "a3", "a4"),
       ("a3+a4 >= 1",), "a1+3*a2+6*a3+5*a4"),
    _r("L3.5c", "L3.5", [(1, 2, "a1")], ("a1", "a2"), ("a1 >= 1",), "3*a1+2*a2-2"),

    _r("L3.6a", "L3.6", [(4, 3, "a4"), (5, 3, "a5")], ("a1", "a2", "a3", "a4", "a5"),
       ("a3 >= a4 >= a5", "a4+a5 > a1+a2+8"), "4*(a3+a4+a5)-2*(a1+a2)-8"),
    _r("L3.6b", "L3.6", [(2, 1, "a2")], ("a1", "a2", "a3"),
       ("a2+a3 > 1", "a2 >= 1"), "2*(a2+a3)-4"),
    _r("L3.6c", "L3.6", [(1, 3, "a1")], ("a1", "a3"),
       ("a1+a3 > 2", "a1 >= 1"), "2*(a1+a3)-4"),

    _r("L3.7a", "L3.7", [(4, 3, "a4"), (5, 3, "a5"), (6, 3, "a6")],
       ("a1", "a2", "a3", "a4", "a5", "a6"),
       ("a3 >= a4 >= a5 >= a6 >= 1",), "4*(a3+a4+a5+a6)-8"),
    _r("L3.7b", "L3.7", [(1, 3, "a1"), (2, 3, "a2")], ("a1", "a2", "a3"),
       ("a1+a2 >= 1",), "10*a1+6*a2+2*a3-8"),

    _r("L3.8a", "L3.8", [(4, 3, "a4"), (5, 3, "a5"), (6, 3, "a6")],
       ("a1", "a2", "a3", "a4", "a5", "a6"),
       ("a3 >= a2", "a4+a5+a6 > 1"), "2*(a3+a4+a5)+6*a6-2*a2-12"),
    _r("L3.8b", "L3.8", [(1, 3, "a1"), (2, 3, "a2")], ("a1", "a2", "a3"),
       ("a1+a2 >= 1",), "2*a1+6*a2"),
]}


@dataclass(frozen=True)
class RuleGroup:
    group: str
    order: int                                  # kernel hubs 0..order-1
    edges: tuple[tuple[int, int], ...]          # kernel edges (a, b), a <= b
    lengths: tuple[tuple[int, ...], ...]        # one per realization (sorted lengths
                                                # can admit several simple ones)
    roles: int                                  # number of labeled vertices
    role_degrees: Optional[tuple[int, ...]]     # stated brace degrees, if any
    # the `subdivision` of the kernel by each length tuple
    realizations: tuple[Graph, ...] = field(init=False, repr=False)
    automorphisms: tuple[tuple[tuple[int, ...], ...], ...] = field(init=False, repr=False)

    def __post_init__(self):
        built = [subdivision(self.order, self.edges, k) for k in self.lengths]
        object.__setattr__(self, "realizations", tuple(g for g, _ in built))
        object.__setattr__(self, "automorphisms", tuple(auts for _, auts in built))


_K4 = (4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
# three-hub braces have hubs x=0, y=1, z=2: two paths x-y, two paths x-z
# and one path y-z
_THREE_HUB = (3, ((0, 1), (0, 1), (0, 2), (0, 2), (1, 2)))
_FOUR_THETA = (2, ((0, 1),) * 4)

GROUPS: dict[str, RuleGroup] = {g.group: g for g in [
    # K4 with one edge split by a new vertex
    RuleGroup("L3.2", *_K4, ((1, 1, 1, 1, 1, 2),), 5, None),
    RuleGroup("L3.3", *_THREE_HUB, ((1, 2, 1, 2, 1),), 5, None),
    RuleGroup("L3.4", *_THREE_HUB, ((1, 2, 2, 2, 1), (1, 2, 1, 2, 2)), 6, None),
    RuleGroup("L3.5", *_THREE_HUB, ((1, 2, 1, 3, 1),), 6, None),
    RuleGroup("L3.6", *_FOUR_THETA, ((1, 2, 2, 2),), 5, (4, 4, 2, 2, 2)),
    RuleGroup("L3.7", *_FOUR_THETA, ((2, 2, 2, 2),), 6, (4, 4, 2, 2, 2, 2)),
    RuleGroup("L3.8", *_FOUR_THETA, ((1, 2, 2, 3),), 6, (4, 4, 2, 2, 2, 2)),
]}


def rule_ids() -> list[str]:
    return sorted(RULES)


# -- configuration building and measurement -----------------------------------


def measured_delta(
    brace: Graph, roles: tuple[int, ...], rule: ShiftRule, params: dict[str, int]
) -> int:
    """Index after the rule's shift minus the index before it.  Role v_i
    carries a_i pendants.  Moving pendant edges between brace vertices gives
    a graph isomorphic to the brace with the moved counts, so both graphs
    are built from their counts."""
    before = {v: params.get(f"a{i}", 0) for i, v in enumerate(roles, start=1)}
    after = dict(before)
    for src, dst, pname in rule.moves:
        k = params.get(pname, 0)
        after[roles[src - 1]] -= k
        after[roles[dst - 1]] += k
    return (edge_mostar(with_pendants(brace, after))
            - edge_mostar(with_pendants(brace, before)))


def _sample_params(rule: ShiftRule, rng: random.Random, count: int,
                   hi: int = 8, loaded: bool = False) -> list[dict[str, int]]:
    """Deterministic tuples satisfying the stated conditions with a strictly
    positive predicted delta and a non-empty shift.

    `loaded` biases toward mid-chain configurations (shift targets holding
    more pendants than the edges being moved onto them), which is the regime
    the printed expressions resolve their absolute values in.
    """
    out = []
    seen = set()
    attempts = 0
    while len(out) < count and attempts < 20000:
        attempts += 1
        p = dict.fromkeys(PARAMS, 0)
        for k in rule.live:
            p[k] = rng.randint(1 if loaded else 0, hi)
        if loaded:
            for _, dst, pname in rule.moves:
                tgt = f"a{dst}"
                if tgt in rule.live:
                    p[tgt] = max(p[tgt], p[pname] + rng.randint(1, 3))
        if not rule.check(p):
            continue
        if rule.delta(p) <= 0:
            continue
        if all(p[pname] == 0 for _, _, pname in rule.moves):
            continue
        key = tuple(sorted(p.items()))
        if key in seen:
            continue
        seen.add(key)
        out.append(p)
    return out


def _calibration_probes(rule: ShiftRule) -> list[dict[str, int]]:
    corner = _sample_params(rule, random.Random(f"cal-corner:{rule.id}"), 5, hi=5)
    loaded = _sample_params(
        rule, random.Random(f"cal-loaded:{rule.id}"), 5, hi=5, loaded=True
    )
    return corner + loaded


# -- calibration ---------------------------------------------------------------


def _role_assignments(brace: Graph, group: tuple[tuple[int, ...], ...], roles: int,
                      role_degrees: Optional[tuple[int, ...]]):
    """Injective role -> vertex maps, one per automorphism class: the least
    image of each under `group`, the brace's automorphism group, in
    lexicographic order."""
    for perm in itertools.permutations(range(brace.n), roles):
        if role_degrees and any(brace.degree(v) != d for v, d in zip(perm, role_degrees)):
            continue
        if not any(tuple([g[v] for v in perm]) < perm for g in group):
            yield perm


@dataclass(frozen=True)
class Calibration:
    group: str
    realization: int
    roles: tuple[int, ...]
    matched_rules: tuple[str, ...]

    def brace(self) -> Graph:
        return GROUPS[self.group].realizations[self.realization]


@lru_cache(maxsize=None)
def calibrate(group_id: str) -> Calibration:
    """Search realizations and labelings for the one reproducing the group's
    delta expressions.

    Scoring counts matched (rule, probe) pairs rather than all-or-nothing
    rules: several printed expressions hold only on the slice of parameter
    space their rewriting chain actually visits, so the correct labeling is
    the one explaining the most probes.  Rules it cannot fully explain are
    reported DISCREPANT by the verification suite.
    """
    group = GROUPS[group_id]
    rules = [r for r in RULES.values() if r.group == group_id]
    rules.sort(key=lambda r: r.id)
    probes = {r.id: _calibration_probes(r) for r in rules}
    best: Optional[Calibration] = None
    best_score = -1
    for ridx, (brace, auts) in enumerate(zip(group.realizations, group.automorphisms)):
        for roles in _role_assignments(brace, auts, group.roles, group.role_degrees):
            score = 0
            matched = []
            for r in rules:
                hits = sum(
                    1
                    for p in probes[r.id]
                    if measured_delta(brace, roles, r, p) == r.delta(p)
                )
                score += hits
                if hits == len(probes[r.id]):
                    matched.append(r.id)
            if score > best_score:
                best_score = score
                best = Calibration(group_id, ridx, roles, tuple(matched))
    assert best is not None
    return best


# -- verification ---------------------------------------------------------------


@dataclass(frozen=True)
class ShiftCheckRow:
    rule: str
    params: dict[str, int]
    measured: Optional[int]
    expected: int
    status: str
    region: str = "general"

    def to_dict(self) -> dict:
        return {
            "lemma": self.rule,
            "params": {k: v for k, v in sorted(self.params.items()) if v},
            "measured_delta": self.measured,
            "paper_delta": self.expected,
            "status": self.status,
            "region": self.region,
        }


def verify_lemma_shift(rule_id: str, params: dict[str, int],
                       region: str = "general") -> ShiftCheckRow:
    """Build the rule's configuration, apply its shift, compare exactly.

    Counts that are not non-negative ints and tuples violating the side
    conditions raise; a non-positive prediction or an empty shift is SKIPPED.
    """
    if bad := {k: v for k, v in params.items() if type(v) is not int or v < 0}:
        raise GraphError(f"{rule_id}: counts {bad} are not non-negative integers")
    rule = RULES.get(rule_id)
    if rule is None:
        raise GraphError(f"unknown rule {rule_id}")
    p = dict.fromkeys(PARAMS, 0)
    p.update(params)
    dead = [k for k, v in p.items() if v and k not in rule.live]
    if dead:
        raise GraphError(f"{rule_id} does not use parameters {dead}")
    expected = rule.delta(p)
    if all(p[n] == 0 for _, _, n in rule.moves):
        return ShiftCheckRow(rule_id, p, None, expected, SKIPPED, region)
    if not rule.check(p):
        raise GraphError(f"{rule_id}: side conditions {rule.conditions} violated")
    if expected <= 0:
        return ShiftCheckRow(rule_id, p, None, expected, SKIPPED, region)
    cal = calibrate(rule.group)
    measured = measured_delta(cal.brace(), cal.roles, rule, p)
    status = MATCH if measured == expected else DISCREPANT
    return ShiftCheckRow(rule_id, p, measured, expected, status, region)


def _interpolate_measured(rule: ShiftRule, cal: Calibration,
                          rows: list[ShiftCheckRow]) -> str:
    """Fit the measured delta as an exact affine form of the live parameters
    at a deep-interior base point, then state on how many of the rule's
    rows it holds (only a skipped row's delta is measured here)."""
    base = dict.fromkeys(PARAMS, 0)
    for k in rule.live:
        base[k] = 8
    brace, roles = cal.brace(), cal.roles

    def meas(pp):
        return measured_delta(brace, roles, rule, pp)

    v0 = meas(base)
    coeffs = {}
    for k in rule.live:
        up = dict(base)
        up[k] += 1
        coeffs[k] = meas(up) - v0
    const = v0 - sum(coeffs[k] * base[k] for k in rule.live)
    terms = []
    for k in rule.live:
        if coeffs[k]:
            terms.append(f"{'+' if coeffs[k] > 0 else '-'}{abs(coeffs[k])}*{k}")
    if const:
        terms.append(f"{'+' if const > 0 else '-'}{abs(const)}")
    fit = "".join(terms).lstrip("+") or "0"
    hold = sum(1 for r in rows
               if (meas(r.params) if r.measured is None else r.measured)
               == sum(coeffs[k] * r.params[k] for k in rule.live) + const)
    return f"{fit} (interior fit; holds on {hold}/{len(rows)} sampled tuples)"


@dataclass
class ShiftSuiteReport:
    rows: list[ShiftCheckRow] = field(default_factory=list)
    calibrations: dict[str, dict] = field(default_factory=dict)
    interpolations: dict[str, str] = field(default_factory=dict)

    @property
    def all_positive(self) -> bool:
        return all(r.measured is None or r.measured > 0 for r in self.rows)

    def statuses(self, region: Optional[str] = None) -> dict[str, str]:
        """Strict per-rule verdict over every sampled tuple, or over one
        region's batch only ("loaded": the mid-chain regime)."""
        out: dict[str, str] = {}
        for r in self.rows:
            if region is not None and r.region != region:
                continue
            if r.status == DISCREPANT:
                out[r.rule] = DISCREPANT
            elif r.status == MATCH and out.get(r.rule) != DISCREPANT:
                out[r.rule] = MATCH
            else:
                out.setdefault(r.rule, SKIPPED)
        return out

    def counts(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        for r in self.rows:
            c = out.setdefault(
                r.rule, {"match": 0, "discrepant": 0, "skipped": 0, "nonpositive": 0}
            )
            c[r.status.lower()] += 1
            if r.measured is not None and r.measured <= 0:
                c["nonpositive"] += 1
        return out

    def to_dict(self) -> dict:
        return {
            "rows": [r.to_dict() for r in self.rows],
            "calibrations": self.calibrations,
            "interpolations": self.interpolations,
            "statuses": self.statuses(),
            "loaded_statuses": self.statuses("loaded"),
            "counts": self.counts(),
            "all_measured_deltas_positive": self.all_positive,
        }


def run_shift_suite(count: int = 20, seed: int = 0) -> ShiftSuiteReport:
    """Verify every rule on two deterministic batches of at most `count`
    tuples (the sampler stops after 20,000 draws, so a rare region has fewer).

    The loaded batch samples mid-chain configurations (the regime the
    expressions were derived in) and determines the MATCH/DISCREPANT
    status; the general batch roams the full printed-condition region to
    map where an expression stops holding.  Discrepant rules carry an
    exact interior interpolation of the measured delta.
    """
    report = ShiftSuiteReport()
    for rule_id in rule_ids():
        rule = RULES[rule_id]
        cal = calibrate(rule.group)
        report.calibrations[rule.group] = {
            "realization": cal.realization,
            "roles": list(cal.roles),
            "matched_rules": list(cal.matched_rules),
        }
        loaded = _sample_params(
            rule, random.Random(f"{seed}:{rule_id}:loaded"), count, loaded=True
        )
        general = _sample_params(
            rule, random.Random(f"{seed}:{rule_id}"), count
        )
        rows = [verify_lemma_shift(rule_id, p, region)
                for region, batch in (("loaded", loaded), ("general", general))
                for p in batch]
        report.rows += rows
        if any(row.status == DISCREPANT for row in rows):
            report.interpolations[rule_id] = _interpolate_measured(rule, cal, rows)
    return report
