"""Exhaustive verification of the extremal claims and the atlas driver.

The sharp upper bound over all connected tricyclic graphs of size m is

    12 (m=7), 23 (m=8), 36 (m=9), 53 (m=10), 72 (m=11), m^2-m-36 (m>=12)

and over bicyclic graphs

    4 (m=5), m^2-3m-6 (6<=m<=8), 48 (m=9), m^2-m-24 (m>=10).

Each verification row compares the enumerated maximum against the table,
checks that the expected families (where pinned or discovered) appear
among the maximizers, and records the observed maximizer count next to
the published list's cardinality.  Count disagreements are reported, not
failed: they flag equality cases the published characterization misses
or double-counts, which is precisely what exhaustive search is for.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import count
from math import comb
from typing import Callable, Optional

from .enumeration import (
    EnumerationResult,
    EnumerationTask,
    Survey,
    bicyclic_task,
    survey,
    tricyclic_task,
)
from .families import (
    DiscoveryReport,
    FamilyRegistry,
    builtin_registry,
    discover_families,
    member_form,
)
from .indices import poly_eval

PASS = "PASS"
FAIL = "FAIL"
INFO = "INFO"


@dataclass(frozen=True)
class ClassSpec:
    """One graph class's published table: the maxima and equality families
    listed size by size, then one quadratic and family list from
    `tail_start` on.  Sizes below the table are outside the statement;
    `top`, the largest size the CI workflow verifies, is the largest the
    command line accepts."""

    task: Callable[[int], EnumerationTask]
    listed_max: dict[int, int]
    listed_families: dict[int, tuple[str, ...]]
    tail_start: int
    tail_poly: tuple[int, int, int]
    tail_families: tuple[str, ...]
    top: int

    def expected_max(self, m: int) -> Optional[int]:
        if m in self.listed_max:
            return self.listed_max[m]
        return poly_eval(self.tail_poly, m) if m >= self.tail_start else None

    def expected_families(self, m: int) -> tuple[str, ...]:
        if m in self.listed_families:
            return self.listed_families[m]
        return self.tail_families if m >= self.tail_start else ()

    @property
    def sizes(self) -> range:
        """The sizes that can be verified: from the first at which the class
        has a graph (m <= n(n-1)/2) through `top`."""
        lo = next(m for m in count(1) if m <= comb(max(self.task(m).n, 0), 2))
        return range(lo, self.top + 1)

    @property
    def atlas_tops(self) -> range:
        """The limits an atlas accepts: the first listed size through the last of `sizes`."""
        return range(min(self.listed_max), self.sizes[-1] + 1)

    def atlas_sizes(self, top: int, name: str) -> range:
        """The sizes an atlas surveys, up to `top`; ValueError naming `name`
        when `top` is not in `atlas_tops`."""
        if top not in (tops := self.atlas_tops):
            raise ValueError(f"{name} {top} outside supported range {tops[0]}..{tops[-1]}")
        return range(tops[0], top + 1)


TRICYCLIC = ClassSpec(
    task=tricyclic_task,
    listed_max={7: 12, 8: 23, 9: 36, 10: 53, 11: 72},
    listed_families={
        7: ("F1", "H1"),
        8: ("A3", "F1", "H1"),
        9: ("A2", "A3", "A4", "A5", "A6", "F1", "H1"),
        10: ("A2",),
        11: ("A1", "A2"),
    },
    tail_start=12,
    tail_poly=(1, -1, -36),
    tail_families=("A0",),
    top=22,
)

BICYCLIC = ClassSpec(
    task=bicyclic_task,
    # m^2-3m-6 at 6..8
    listed_max={5: 4, 6: 12, 7: 22, 8: 34, 9: 48},
    listed_families={
        5: ("B3", "B4"),
        6: ("B1", "B3"),
        7: ("B1", "B3"),
        8: ("B1", "B3"),
        9: ("B0", "B1", "B2", "B3", "B4"),
    },
    tail_start=10,
    tail_poly=(1, -1, -24),
    tail_families=("B0",),
    top=30,
)


@dataclass(frozen=True)
class VerificationRow:
    m: int
    expected_max: Optional[int]
    observed_max: Optional[int]
    expected_families: tuple[str, ...]
    observed_maximizer_count: int
    # family id -> True (among maximizers) / False (absent) / None (no
    # registry entry or not buildable at this size)
    family_hits: dict[str, Optional[bool]]
    status: str
    note: str = ""

    def to_dict(self) -> dict:
        return {**asdict(self), "expected_families": list(self.expected_families)}


def _row(
    spec: ClassSpec, m: int, res: EnumerationResult, registry: FamilyRegistry
) -> VerificationRow:
    expected = spec.expected_max(m)
    families = spec.expected_families(m)
    max_set = set(res.maximizers)
    hits: dict[str, Optional[bool]] = {
        fid: None if fid not in registry or registry[fid].m_min > m
        else member_form(registry[fid], m, order=res.task.n) in max_set
        for fid in families
    }
    notes = []
    if expected is None:
        status = INFO
        notes.append("outside the theorem's statement")
    else:
        ok = res.max_value == expected and all(v is not False for v in hits.values())
        status = PASS if ok else FAIL
    listed = len(families)
    if expected is not None and listed and listed != len(max_set):
        notes.append(
            f"published equality list names {listed} graphs, enumeration "
            f"finds {len(max_set)}"
        )
    unpinned = [f for f, v in hits.items() if v is None]
    if unpinned:
        notes.append(f"not pinned at this size: {unpinned}")
    return VerificationRow(
        m=m, expected_max=expected, observed_max=res.max_value, expected_families=families,
        observed_maximizer_count=len(max_set), family_hits=hits, status=status,
        note="; ".join(notes))


def _verify(
    spec: ClassSpec,
    sizes: list[int],
    registry: Optional[FamilyRegistry],
    workers: int,
    surveys: Optional[dict[int, Survey]],
) -> list[VerificationRow]:
    """One row per size; sizes found in `surveys` are not enumerated again,
    and the others are enumerated together in one survey."""
    reg = registry if registry is not None else builtin_registry()
    known = surveys or {}
    missing = [spec.task(m) for m in sizes if m not in known]
    fresh = survey(missing, workers=workers) if missing else {}
    return [
        _row(spec, m, (known[m] if m in known else fresh[spec.task(m)]).result, reg)
        for m in sizes
    ]


def verify_tricyclic(
    sizes: list[int],
    registry: Optional[FamilyRegistry] = None,
    workers: int = 1,
    surveys: Optional[dict[int, Survey]] = None,
) -> list[VerificationRow]:
    return _verify(TRICYCLIC, sizes, registry, workers, surveys)


def verify_bicyclic(
    sizes: list[int],
    registry: Optional[FamilyRegistry] = None,
    workers: int = 1,
    surveys: Optional[dict[int, Survey]] = None,
) -> list[VerificationRow]:
    return _verify(BICYCLIC, sizes, registry, workers, surveys)


@dataclass
class AtlasResult:
    registry: FamilyRegistry
    report: DiscoveryReport
    tri_surveys: dict[int, Survey] = field(repr=False, default_factory=dict)
    bi_surveys: dict[int, Survey] = field(repr=False, default_factory=dict)


def run_atlas(
    tri_max_size: int = 12,
    bi_max_size: int = 10,
    workers: int = 1,
) -> AtlasResult:
    """Enumerate, discover the unpinned families, and report.

    Each family takes the first construction whose member is a maximizer
    at every surveyed size whose published list names it
    (`discover_families`).  A1's tail holds from size 11, so it needs
    tri_max_size >= 11; B2/B4, drawn from the size-9 maximizers, need
    bi_max_size >= 9.
    Each limit is checked by `ClassSpec.atlas_sizes` before any survey
    (tricyclic 7..22, bicyclic 5..30).  Both classes come from one survey,
    whose pool runs the brace units of every size together.
    """
    tri_tasks = {m: TRICYCLIC.task(m) for m in TRICYCLIC.atlas_sizes(tri_max_size, "tri_max_size")}
    bi_tasks = {m: BICYCLIC.task(m) for m in BICYCLIC.atlas_sizes(bi_max_size, "bi_max_size")}
    done = survey([*tri_tasks.values(), *bi_tasks.values()], workers=workers)
    tri = {m: done[task] for m, task in tri_tasks.items()}
    bi = {m: done[task] for m, task in bi_tasks.items()}
    reg, report = discover_families(tri, bi)
    return AtlasResult(registry=reg, report=report, tri_surveys=tri, bi_surveys=bi)
