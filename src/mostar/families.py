"""Extremal graph families: pinned constructions, polynomials, discovery.

A family is a base graph plus a designated attachment vertex; the member
of size m is the base with pendant edges added at that vertex.  Four
tricyclic/bicyclic constructions are pinned analytically (their closed
forms were verified directly), as are the cycles with pendants at one
vertex, and every other named family is reconstructed by the discovery
pipeline from the braces (graphs of minimum degree >= 2) of the shapes
DISCOVERY names, up to the last size a published equality list names.
One pass (`_brace_tails`) asks `braces.kernel_braces` for the braces of
those shapes alone and reads the `indices.model_tails` record of each at
one vertex per orbit (`_orbit_tails`): (brace, vertex) is a candidate
for a family when its tail is the family's polynomial, the brace has the
family's shape and the tail holds by the largest surveyed size, and only
a candidate is labelled (`_normalize_candidate`), the one place a
brace's identity is worked out.  The pinned m_min is the size from which
the tail holds, so every registry polynomial is proved for all
m >= m_min.  No maximizer is parsed: the survey carries the brace and
attachment vertex of each that has one.

Which candidate becomes which family is read off the paper's equality
lists (`verify.TRICYCLIC` and `verify.BICYCLIC`, `listed_families`), by
one rule for every id: a family's member is a maximizer at each surveyed
size whose list names the family (`discover_families`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Iterable, Iterator, Optional

from . import braces as br
from .canon import canon, canonical_form
from .graphs import Graph, GraphError, edge_pairs, is_connected
from .graphs import with_pendants, write_graph6
from .indices import model_tails, pendant_model, poly_eval, tail_index

ANALYTIC = "ANALYTIC"
DISCOVERED = "DISCOVERED"


class NotPinnedError(KeyError):
    """The family has no registry entry yet (discovery has not resolved it)."""


def _ints(value, count: int) -> bool:
    """A list of `count` ints, bools (an int subclass) and floats excluded."""
    return isinstance(value, list) and len(value) == count and all(
        type(x) is int for x in value)


@dataclass(frozen=True)
class FamilySpec:
    id: str
    base_edges: tuple[tuple[int, int], ...]
    attach: int
    m_min: int                      # smallest size the polynomial is claimed for
    poly: Optional[tuple[int, int, int]]
    provenance: str

    @property
    def n_base(self) -> int:
        return 1 + max(max(e) for e in self.base_edges)

    @property
    def m_base(self) -> int:
        return len(self.base_edges)

    def base_graph(self) -> Graph:
        return Graph.from_edges(self.n_base, self.base_edges)

    def build(self, m: int) -> Graph:
        if m < self.m_min:
            raise GraphError(f"{self.id}: size {m} below m_min={self.m_min}")
        return with_pendants(self.base_graph(), {self.attach: m - self.m_base})

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "base_edges": [list(e) for e in self.base_edges],
            "attach": self.attach,
            "m_min": self.m_min,
            "poly": list(self.poly) if self.poly is not None else None,
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FamilySpec":
        """Read one registry entry, rejecting any entry with a field of the
        wrong type or that `build` cannot turn into a connected graph of at
        least m_min edges."""
        fid = d["id"]
        if not isinstance(fid, str):
            raise ValueError(f"family id {fid!r} is not a string")
        if not d["base_edges"]:
            raise ValueError(f"family {fid} has no base edges")
        for e in d["base_edges"]:
            if not _ints(e, 2):
                raise ValueError(f"family {fid}: base edge {e!r} is not two integers")
        for name in ("attach", "m_min"):
            if type(d[name]) is not int:
                raise ValueError(f"family {fid}: {name} {d[name]!r} is not an integer")
        poly = d.get("poly")
        if poly is not None and not _ints(poly, 3):
            raise ValueError(f"family {fid}: poly {poly!r} is not three integers")
        if not isinstance(d["provenance"], str):
            raise ValueError(
                f"family {fid}: provenance {d['provenance']!r} is not a string")
        spec = cls(
            id=fid,
            base_edges=tuple(tuple(e) for e in d["base_edges"]),
            attach=d["attach"],
            m_min=d["m_min"],
            poly=None if poly is None else tuple(poly),
            provenance=d["provenance"],
        )
        if spec.n_base > spec.m_base + 1:  # before building: a huge id is a huge graph
            raise ValueError(f"family {fid}: {spec.n_base} base vertices cannot be "
                             f"connected by {spec.m_base} base edges")
        try:
            base = spec.base_graph()  # rejects loops and repeated edges
        except GraphError as exc:
            raise ValueError(f"family {spec.id}: {exc}")
        if not is_connected(base):
            raise ValueError(f"family {spec.id}: base edges are not connected")
        if not 0 <= spec.attach < base.n:
            raise ValueError(
                f"family {spec.id}: attach {spec.attach} outside base vertices "
                f"0..{base.n - 1}"
            )
        if spec.m_min < spec.m_base:
            raise ValueError(
                f"family {spec.id}: m_min {spec.m_min} below its "
                f"{spec.m_base} base edges"
            )
        return spec


class FamilyRegistry:
    """Mapping of family id to pinned construction, JSON round-trippable."""

    def __init__(self, specs: Iterable[FamilySpec] = ()):
        self.specs: dict[str, FamilySpec] = {}
        for s in specs:
            if s.id in self.specs:
                raise ValueError(f"duplicate family id {s.id}")
            self.specs[s.id] = s

    def __contains__(self, fid: str) -> bool:
        return fid in self.specs

    def __getitem__(self, fid: str) -> FamilySpec:
        try:
            return self.specs[fid]
        except KeyError:
            raise NotPinnedError(f"family {fid} is not pinned in this registry")

    def add(self, spec: FamilySpec) -> None:
        self.specs[spec.id] = spec

    def ids(self) -> list[str]:
        return sorted(self.specs)

    def to_json(self) -> str:
        return json.dumps(
            [self.specs[i].to_dict() for i in self.ids()], indent=2
        ) + "\n"

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def from_json(cls, text: str) -> "FamilyRegistry":
        return cls(FamilySpec.from_dict(d) for d in json.loads(text))

    @classmethod
    def load(cls, path: str | Path) -> "FamilyRegistry":
        return cls.from_json(Path(path).read_text())


def _analytic_specs() -> list[FamilySpec]:
    # three quadrilaterals sharing one vertex, pendants at the shared vertex
    a0 = FamilySpec(
        "A0",
        ((0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0),
         (0, 7), (7, 8), (8, 9), (9, 0)),
        attach=0, m_min=12, poly=(1, -1, -36), provenance=ANALYTIC,
    )
    # two quadrilaterals sharing one vertex
    b0 = FamilySpec(
        "B0",
        ((0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)),
        attach=0, m_min=8, poly=(1, -1, -24), provenance=ANALYTIC,
    )
    # two hubs joined by paths of lengths 1,2,2 plus a triangle at hub 0
    a3 = FamilySpec(
        "A3",
        ((0, 1), (0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 5), (5, 0)),
        attach=0, m_min=8, poly=(1, -4, -9), provenance=ANALYTIC,
    )
    # two hubs joined by four paths of lengths 1,2,2,2; pendants at a hub
    h1 = FamilySpec(
        "H1",
        ((0, 1), (0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)),
        attach=0, m_min=7, poly=(1, -4, -9), provenance=ANALYTIC,
    )
    # cycle of length r with pendants at one cycle vertex
    s_m3 = FamilySpec(
        "S_M3", ((0, 1), (1, 2), (2, 0)), attach=0, m_min=3,
        poly=(1, -2, -3), provenance=ANALYTIC,
    )
    s_m4 = FamilySpec(
        "S_M4", ((0, 1), (1, 2), (2, 3), (3, 0)), attach=0, m_min=4,
        poly=(1, -1, -12), provenance=ANALYTIC,
    )
    return [a0, b0, a3, h1, s_m3, s_m4]


def builtin_registry() -> FamilyRegistry:
    return FamilyRegistry(_analytic_specs())


def member_form(spec: FamilySpec, m: int, order: int) -> Optional[str]:
    """The one rule for family-member identity: a graph is the family's
    size-m member exactly when its canonical form is this one.  A member
    of another order than `order` is not labelled: None, as graphs of
    different orders never share a form."""
    if spec.n_base + m - spec.m_base != order:
        return None
    return canonical_form(spec.build(m))


# -- discovery ---------------------------------------------------------------

# the families whose drawings are unavailable: closed form and the class
# `kernel_braces` gives the brace (with the sorted path lengths for a
# 2-connected one); B2 and B4 have no closed form and are found among the
# maximizers
DISCOVERY: dict[str, tuple[Optional[tuple[int, int, int]], Optional[br.BraceClass]]] = {
    "A1": ((1, -2, -27), br.BraceClass(br.COMPOSITE)),
    "A2": ((1, -2, -27), br.BraceClass(br.COMPOSITE)),
    "A4": ((1, -4, -9), br.BraceClass(br.COMPOSITE)),
    "A5": ((1, -3, -18), br.BraceClass(br.COMPOSITE)),
    "A6": ((1, -3, -18), br.BraceClass(br.COMPOSITE)),
    "A7": ((1, -3, -18), br.BraceClass(br.COMPOSITE)),
    "D1": ((1, -3, -24), br.BraceClass(br.K4_SUBDIVISION, (1, 1, 1, 1, 1, 2))),
    "D2": ((1, -2, -35), br.BraceClass(br.K4_SUBDIVISION, (1, 1, 1, 1, 1, 2))),
    "F1": ((1, -4, -9), br.BraceClass(br.THREE_HUB, (1, 1, 1, 2, 2))),
    "F2": ((1, -3, -26), br.BraceClass(br.THREE_HUB, (1, 1, 1, 2, 2))),
    "F3": ((1, -3, -20), br.BraceClass(br.THREE_HUB, (1, 1, 2, 2, 2))),
    "F4": ((1, -2, -33), br.BraceClass(br.THREE_HUB, (1, 1, 1, 2, 3))),
    "H2": ((1, -2, -31), br.BraceClass(br.FOUR_THETA, (1, 2, 2, 2))),
    "H3": ((1, -1, -48), br.BraceClass(br.FOUR_THETA, (2, 2, 2, 2))),
    "H4": ((1, -3, -24), br.BraceClass(br.FOUR_THETA, (1, 2, 2, 3))),
    "B1": ((1, -3, -6), br.BraceClass(br.NOT_TRICYCLIC)),
    "B2": (None, None),
    "B3": ((1, -3, -6), br.BraceClass(br.NOT_TRICYCLIC)),
    "B4": (None, None),
}

@dataclass(frozen=True)
class Candidate:
    key: str                       # canonical form of base tagged at attach
    base_edges: tuple[tuple[int, int], ...]
    attach: int
    m_min: int                     # size from which the polynomial holds
    first_seen_m: int

    def spec(self, fid: str) -> FamilySpec:
        return FamilySpec(
            id=fid,
            base_edges=self.base_edges,
            attach=self.attach,
            m_min=self.m_min,
            poly=DISCOVERY[fid][0],
            provenance=DISCOVERED,
        )


def _normalize_candidate(base: Graph, attach: int) -> tuple[tuple[tuple[int, int], ...], int, str]:
    """Canonical (base_edges, attach) representation of a marked brace,
    and its key, the graph6 of the canonical marked graph.

    The marker trick: a brace has minimum degree 2, so tagging the attach
    vertex with one pendant produces a graph whose unique degree-1 vertex
    remembers the attachment orbit; canonicalizing that graph makes the
    stored registry entry independent of how the candidate was found.
    `with_pendants` numbers the marker base.n, so `canon`'s labelling
    gives its canonical position and the attach vertex's; the base keeps
    the other positions in order.
    """
    res = canon(with_pendants(base, {attach: 1}))
    tag = res.labeling[base.n]
    new = {p: p - 1 if p > tag else p for p in range(res.n)}
    edges = tuple((new[u], new[v]) for u, v in edge_pairs(res.canon_adj) if tag not in (u, v))
    return edges, new[res.labeling[attach]], write_graph6(Graph(res.n, res.canon_adj))


@dataclass
class DiscoveryReport:
    resolved: dict[str, dict] = field(default_factory=dict)
    ambiguities: dict[str, list[str]] = field(default_factory=dict)
    unresolved: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    # A7-group candidates over braces of at most min(--max-size, 11) edges:
    # the constructions hitting m^2-3m-18 on a composite brace (settles how
    # many families share that closed form)
    composite_18_family_count: int = 0
    # sizes at which two registry families have isomorphic members, each
    # family's up to max(12, its class's largest surveyed size)
    collisions: dict[str, list[int]] = field(default_factory=dict)
    distinct_max_families_at_9: Optional[int] = None
    # per size: enumerated maximizers not explained by any registry family
    unattributed_maximizers: dict[int, list[str]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "resolved": self.resolved,
            "ambiguities": self.ambiguities,
            "unresolved": sorted(self.unresolved),
            "notes": self.notes,
            "composite_18_family_count": self.composite_18_family_count,
            "collisions": self.collisions,
            "distinct_max_families_at_9": self.distinct_max_families_at_9,
            "unattributed_maximizers": {
                str(m): v for m, v in sorted(self.unattributed_maximizers.items())
            },
        }


# a brace's class, a DISCOVERY polynomial, the construction
_Tail = tuple[br.BraceClass, tuple[int, int, int], Candidate]


def _orbit_tails(
    c: int, sizes: Iterable[int], classes: set[br.BraceClass],
) -> Iterator[tuple[br.BraceClass, Graph, int, tuple]]:
    """For each brace of `kernel_braces(c, sizes, classes)`, in its order,
    and the least vertex v of each orbit of the brace's group: the
    brace's class, the brace, v and v's `model_tails` record."""
    for found in br.kernel_braces(c, sizes, classes).values():
        for brace, auts, cls in found:
            tails = model_tails(pendant_model(brace.adj))
            for v in sorted({min(g[u] for g in auts) for u in range(brace.n)}):
                yield cls, brace, v, tails[v]


def _brace_tails(c: int, hi: int) -> list[_Tail]:
    """Every (brace, vertex) of cyclomatic number c, one vertex per orbit
    of the brace's group, whose brace has a DISCOVERY shape and whose
    exact pendant tail is a DISCOVERY polynomial that holds by hi, the
    largest surveyed size, with the brace's class; only such a pair is
    labelled.  A tail holds from some size >= b on a brace of b edges,
    and an id takes a candidate only when that size is at most each
    surveyed size listing it, so the braces stop at the class's last
    listed size (`tests/deep.py` `discovery_cap`: none past it has a
    pair).  Only braces of a DISCOVERY shape are built
    (`braces.kernel_braces` with those classes), and the pairs come out
    in its order: by size, then kernel, then length tuple."""
    # verify imports this module, so the published tables are read here
    from .verify import BICYCLIC, TRICYCLIC

    cap = min(hi, max({3: TRICYCLIC, 2: BICYCLIC}[c].listed_families))
    shapes = {shape for _, shape in DISCOVERY.values() if shape is not None}
    wanted = {poly for poly, _ in DISCOVERY.values()}
    out = []
    for cls, brace, v, (poly, holds_from, _) in _orbit_tails(c, range(1, cap + 1), shapes):
        if poly in wanted and holds_from <= hi:
            base, attach, key = _normalize_candidate(brace, v)
            out.append((cls, poly, Candidate(key, base, attach, holds_from, holds_from)))
    return out


def _collect_group(fid: str, tails: list[_Tail]) -> list[Candidate]:
    """The candidates whose tail is the family's polynomial and whose
    brace has the family's shape, the class DISCOVERY names; ids sharing
    a DISCOVERY entry share these candidates."""
    poly, shape = DISCOVERY[fid]
    return sorted((c for cls, p, c in tails if p == poly and cls == shape),
                  key=lambda c: (c.m_min, c.key))


def _poly_str(poly: tuple[int, int, int]) -> str:
    a, b, c = poly
    parts = []
    if a:
        parts.append(f"{'' if a == 1 else a}m^2")
    if b:
        parts.append(f"{'+' if b > 0 else '-'}{abs(b)}m")
    if c:
        parts.append(f"{'+' if c > 0 else '-'}{abs(c)}")
    return "".join(parts) or "0"


def _unresolved_forensics(fid: str, report: "DiscoveryReport", top: int) -> None:
    """When no construction matches a family's printed closed form, record
    the measured polynomials of every single-attach family on its brace
    (a four-path theta, the one brace of its shape), one per orbit.  An
    orbit whose tail is the printed form heads the note with the size its
    tail holds from, and says when that lies past `top`, the largest
    surveyed size."""
    claimed, shape = DISCOVERY[fid]
    if shape is None or shape.kind != br.FOUR_THETA:
        return
    heads, lines = [], []
    for _, base, v, tail in _orbit_tails(3, [sum(shape.path_parameters)], {shape}):
        poly, holds_from, _ = tail
        orbit = f"deg-{base.degree(v)} orbit of {v}"
        if poly == claimed:
            past = f", past the largest surveyed size {top}" if holds_from > top else ""
            heads.append(f"the single-attach family on its brace's {orbit} follows the "
                         f"printed closed form {_poly_str(claimed)} only from "
                         f"m>={holds_from}{past}")
        hits = [m for m in range(base.m, holds_from)
                if tail_index(tail, m - base.m, m) == poly_eval(claimed, m)]
        # both forms are monic, so past the head they differ by a linear
        # function with at most one root (none when the forms are equal)
        slope, offset = poly[1] - claimed[1], poly[2] - claimed[2]
        if slope and offset % slope == 0 and -offset // slope >= holds_from:
            hits.append(-offset // slope)
        lines.append(
            f"attach {orbit}: {_poly_str(poly)} from m>={holds_from}"
            + (f", equals the printed form only at m={hits}" if hits else "")
        )
    heads = heads or [f"no single-attach family on its brace matches the printed "
                      f"closed form {_poly_str(claimed)}"]
    report.notes.append(f"{fid}: " + "; ".join(heads) + "; measured families: "
                        + "; ".join(lines))


def _maximizer_pool(s, m: int) -> list[Candidate]:
    """The single-attach decompositions of the survey's size-m maximizers,
    as candidates first seen at m, by (m_min, key)."""
    out = []
    for dec in s.maximizer_braces:
        if dec is not None:
            edges, attach, key = _normalize_candidate(*dec)
            out.append(Candidate(key, edges, attach, len(edges), m))
    return sorted(out, key=lambda c: (c.m_min, c.key))


def discover_families(
    tri_surveys: dict,
    bi_surveys: dict,
) -> tuple[FamilyRegistry, DiscoveryReport]:
    """Reconstruct the unpinned families from enumeration output.

    `tri_surveys` and `bi_surveys` map size m to that size's Survey;
    discovery reads their maximizers, lists its own braces up to the
    largest size of each (`_brace_tails`) and extends the builtin
    registry.  One rule pins every DISCOVERY id, read against the
    published equality lists: the ids listed at the most surveyed sizes
    go first (ties by id), and each takes the first candidate, by
    (m_min, key), whose key no registry family has and whose member is a
    maximizer at every surveyed size that lists the id.  An id with no
    closed form draws its candidates from the maximizers at the largest
    size that lists it.  The other candidates that pass, unless another
    id takes them, are recorded as ambiguities; an id with none is
    listed as unresolved, never fabricated.
    """
    # verify imports this module, so the published tables are read here
    from .verify import BICYCLIC, TRICYCLIC

    reg = builtin_registry()
    report = DiscoveryReport()
    forms: dict = {}

    def member(spec: FamilySpec, m: int, order: int) -> Optional[str]:
        """`member_form`, labelled once per construction, size and order."""
        key = (spec.base_edges, spec.attach, m, order)
        if key not in forms:
            forms[key] = member_form(spec, m, order)
        return forms[key]

    # per id, (size, order, survey or None) at each size whose list names it
    listed = {fid: [(m, spec.task(m).n, surveys.get(m))
                    for spec, surveys in ((TRICYCLIC, tri_surveys), (BICYCLIC, bi_surveys))
                    for m, ids in sorted(spec.listed_families.items()) if fid in ids]
              for fid in DISCOVERY}
    tails = (_brace_tails(3, max(tri_surveys, default=0))
             + _brace_tails(2, max(bi_surveys, default=0)))
    taken = {_normalize_candidate(spec.base_graph(), spec.attach)[2]
             for spec in reg.specs.values()}
    passed: dict[str, list[Candidate]] = {}
    for fid in sorted(DISCOVERY, key=lambda f: (-sum(s is not None for *_, s in listed[f]), f)):
        if DISCOVERY[fid][0] is not None:
            pool = _collect_group(fid, tails)
        else:
            m, _, s = listed[fid][-1]
            pool = [] if s is None else _maximizer_pool(s, m)
        checks = [(m, n, s.result.maximizers) for m, n, s in listed[fid] if s is not None]
        passed[fid] = [c for c in pool if c.key not in taken and all(
            c.m_min <= m and member(c.spec(fid), m, n) in top for m, n, top in checks)]
        if not passed[fid]:
            report.unresolved.append(fid)
            continue
        c = passed[fid][0]
        taken.add(c.key)
        reg.add(c.spec(fid))
        report.resolved[fid] = {"key": c.key, "m_min": c.m_min,
                                "first_seen_m": c.first_seen_m, "base_m": len(c.base_edges)}
    for fid, picks in passed.items():
        if rest := [c.key for c in picks[1:] if c.key not in taken]:
            report.ambiguities[fid] = rest

    # every construction with A7's closed form and shape (the m^2-3m-18 group)
    report.composite_18_family_count = len(_collect_group("A7", tails))
    if "A7" in report.resolved:
        report.notes.append(
            "a third composite construction with closed form m^2-3m-18 exists; "
            "recorded as A7"
        )
    else:
        report.notes.append(
            "only two composite constructions match m^2-3m-18; A7 appears to "
            "duplicate another family"
        )
    for fid in report.unresolved:
        _unresolved_forensics(fid, report, max(tri_surveys, default=0))

    table = _member_table(reg, {TRICYCLIC.task: max([12, *tri_surveys]),
                                BICYCLIC.task: max([12, *bi_surveys])}, member)
    report.collisions = _member_collisions(table)
    # how many distinct graphs the theorem's size-9 maximizer list names
    report.distinct_max_families_at_9 = len(
        {k for f, k in table[9].items() if f in TRICYCLIC.listed_families[9]})
    _attribute_maximizers(table, report, tri_surveys, bi_surveys)
    return reg, report


def _member_table(reg: FamilyRegistry, tops: dict,
                  member=member_form) -> dict[int, dict[str, str]]:
    """{m: {family id: canonical form of its size-m member}} for each class
    task in `tops` and m up to its top: a family is labelled only at its
    class's task order (never S_M3, S_M4), as other orders never collide."""
    return {m: {f: form for task, hi in tops.items() if m <= hi for f in reg.ids()
                if reg[f].m_min <= m and (form := member(reg[f], m, task(m).n))}
            for m in range(max(tops.values()) + 1)}


def _attribute_maximizers(table: dict[int, dict[str, str]], report: DiscoveryReport,
                          tri_surveys: dict, bi_surveys: dict) -> None:
    """Match every enumerated maximizer to a registry family by canonical
    form; the rest are the graphs the printed equality cases do not name,
    each noted with the class the survey carries for its brace."""
    for surveys in (tri_surveys, bi_surveys):
        for m, s in sorted(surveys.items()):
            members = set(table[m].values())
            extras = [row for row in zip(s.result.maximizers, s.maximizer_classes,
                                         s.maximizer_braces) if row[0] not in members]
            if not extras:
                continue
            report.unattributed_maximizers.setdefault(m, []).extend(g6 for g6, _, _ in extras)
            for g6, cls, dec in extras:
                if dec is None:
                    continue
                poly, holds_from, _ = model_tails(pendant_model(dec[0].adj))[dec[1]]
                report.notes.append(
                    f"size-{m} maximizer {g6} belongs to no registered family; "
                    f"its single-attach family follows {_poly_str(poly)} from "
                    f"m>={holds_from} ({cls.kind} brace)"
                )


def _member_collisions(table: dict[int, dict[str, str]]) -> dict[str, list[int]]:
    """Sizes at which two registry families have isomorphic members: the
    pairs of ids that share a canonical form at each size of `table`."""
    pairs: dict[tuple[str, str], list[int]] = {}
    for m, forms in sorted(table.items()):
        for f1, f2 in combinations(sorted(forms), 2):
            if forms[f1] == forms[f2]:
                pairs.setdefault((f1, f2), []).append(m)
    return {f"{f1}/{f2}": ms for (f1, f2), ms in sorted(pairs.items())}
