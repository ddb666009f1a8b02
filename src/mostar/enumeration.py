"""Isomorphism-free enumeration of the connected bicyclic and tricyclic
graphs with fixed (n, m), whose cyclomatic number c = m - n + 1 is 2 or 3.

A connected graph with c >= 1 is its brace (its 2-core) with a rooted tree
hung at every brace vertex, and two such graphs are isomorphic exactly when
their braces are and an automorphism of the brace carries one assignment of
trees to the other.  Per brace of `braces.kernel_braces` nothing is listed:
its classes are counted off its group's cycle index (`_class_counts`), the
best of them read at the corners of its `indices.pendant_model`, and the
ties listed, unscored, by that bound's equality case (`_survey_brace`).
`survey`'s workers list the braces, one class and size each, and it labels
only the graphs at each task's best.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from multiprocessing import get_context
from operator import mul
from typing import Iterable, Optional

from .braces import BraceClass, kernel_braces
from .canon import canonical_form
from .graphs import Graph, with_pendants
from .indices import model_tails, pendant_model, tail_index


@dataclass(frozen=True)
class EnumerationTask:
    n: int
    m: int

    def validate(self) -> None:
        if self.n < 0 or self.m < 0:
            raise ValueError("order and size must be nonnegative")
        if self.m - self.n + 1 not in (2, 3):
            raise ValueError(
                "enumeration covers bicyclic and tricyclic graphs "
                f"(m - n + 1 of 2 or 3), got n={self.n}, m={self.m}"
            )

    def to_dict(self) -> dict:
        return {"n": self.n, "m": self.m}


@dataclass(frozen=True)
class EnumerationResult:
    """The max/argmax fold of one task; each maximizer string is its
    graph's `canonical_form`, which discovery and the verify rows rely on."""

    task: EnumerationTask
    graphs_visited: int
    max_value: Optional[int]
    maximizers: tuple[str, ...]          # canonical graph6, sorted

    def to_dict(self) -> dict:
        return {
            "task": self.task.to_dict(),
            "graphs_visited": self.graphs_visited,
            "max_value": self.max_value,
            "maximizers": list(self.maximizers),
        }


# -- brace-first classes ----------------------------------------------------


def _rooted_tree_counts(k_max: int) -> list[int]:
    """r(0) .. r(k_max), r(k) the number of rooted trees with k edges: OEIS
    A000081 at k + 1 vertices, by its recurrence
    a(n + 1) = (1/n) sum_{j=1..n} (sum_{d | j} d a(d)) a(n - j + 1)."""
    a = [0, 1]
    for n in range(1, k_max + 1):
        a.append(sum(sum(d * a[d] for d in range(1, j + 1) if j % d == 0) * a[n - j + 1]
                     for j in range(1, n + 1)) // n)
    return a[1:]


@lru_cache(maxsize=None)
def _cycle_series(lengths: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Degrees 0..k of the product over `lengths` of t(x^L), t(x) the
    series of `_rooted_tree_counts`; each cycle type, sorted, extends the
    one without its last cycle, so the types of one size share a chain."""
    if not lengths:
        return (1,) + (0,) * k
    head, step, r = _cycle_series(lengths[:-1], k), lengths[-1], _rooted_tree_counts(k)
    return tuple([sum([head[d - j * step] * r[j] for j in range(d // step + 1)])
                  for d in range(k + 1)])


@lru_cache(maxsize=1 << 12)  # most braces share the trivial group of their order
def _class_counts(auts: tuple[tuple[int, ...], ...], k_max: int) -> tuple[int, ...]:
    """The classes on one brace with k tree edges, for k = 0 .. k_max.

    They are the orbits of the brace's automorphism group G on the
    assignments of a rooted tree to every brace vertex with k edges in all.
    By Burnside those number the mean over G of the assignments each
    element g fixes.  An assignment is fixed by g exactly when it is
    constant on each cycle of g, and a cycle of length L carrying a tree of
    j edges carries L j of the k.  So g fixes [x^k] of the product over its
    cycles of t(x^L) (Polya): the cycle index of G, each L-cycle replaced
    by t(x^L).  The sum over G is exact and divisible by its order."""
    totals = [0] * (k_max + 1)
    for g in auts:
        seen, lengths = 0, []
        for v in range(len(g)):
            if not seen >> v & 1:
                length = 0
                while not seen >> v & 1:
                    seen |= 1 << v
                    v, length = g[v], length + 1
                lengths.append(length)
        totals = list(map(int.__add__, totals, _cycle_series(tuple(sorted(lengths)), k_max)))
    return tuple([x // len(auts) for x in totals])


def _survey_brace(brace: tuple[int, ...], auts: tuple[tuple[int, ...], ...],
                  jobs: list[tuple[EnumerationTask, int]]):
    """The brace's share of every task in `jobs`, each with its tree edge
    count k.  Per task, in the order of `jobs`: its class count
    (`_class_counts`), its best value and the compositions of its best
    classes, each least in its orbit under `auts`.

    The best class of a composition a is its all-star graph, a_w pendant
    edges at each vertex w, and no other class of a ties it (the strict
    trees-to-stars step in `indices`); it is worth V(a) + k(m - 1), V(a)
    the brace term sum_e |c_e + sum_w a_w s_e(w)| of `pendant_model`.  A
    corner k e_w, the brace plus k pendant edges at w, is read off w's
    `model_tails` entry (`indices.tail_index`).  For k > 0, with the
    corner form f_e(w) = c_e + k s_e(w), V(a) = sum_e |sum_w (a_w / k)
    f_e(w)| and V(k e_w) = sum_e |f_e(w)|, so by the triangle inequality
    on each edge V(a) <= sum_w (a_w / k) V(k e_w) <= the best corner: the
    best value is the best corner.  a ties it exactly when both steps are
    equalities: the second when a lies on the best corners W, the first
    when on each edge the nonzero f_e(w) over the support of a, all of
    positive weight, share one sign.  So the ties are the compositions of
    k over W with no two support corners of opposite signs on one edge,
    each least in its orbit under `auts`; none is scored.  k = 0 leaves
    the zero composition, and k = 1 lone corners, which need no forms."""
    _, sums, rows = model = pendant_model(brace)
    tails = model_tails(model)
    counts = _class_counts(auts, max(k for _, k in jobs))
    found = []
    for task, k in jobs:
        corners = [tail_index(tail, k, task.m) for tail in tails]
        top = max(corners)
        face = [w for w, value in enumerate(corners) if value == top]
        # ok[j]: the face corners never of opposite sign to face[j] on one edge
        forms = [[c + k * s for c, s in zip(sums, rows[w])] for w in face] if k > 1 else []
        ok = [sum([1 << j for j, g in enumerate(forms) if min(map(mul, f, g)) >= 0])
              for f in forms] or [0] * len(face)
        # each composition once: support corners in face order, each allowed
        # by those before; a part short of what is left needs a later corner
        spread = [((0,) * len(brace), k, (1 << len(face)) - 1)]
        for comp, left, free in spread:  # grows as it is read
            for j in [j for j in range(len(face)) if left and free >> j & 1]:
                w, later = face[j], free & ok[j] & -2 << j
                spread += [(comp[:w] + (a,) + comp[w + 1:], left - a, later)
                           for a in range(1 if later else left, left + 1)]
        ties = [comp for comp, left, _ in spread if not left
                and not any(tuple([comp[x] for x in g]) < comp for g in auts[1:])]
        found.append((counts[k], top, ties))
    return found


def _grow(brace: tuple[int, ...], cls: BraceClass, comp: tuple[int, ...]):
    """The all-star graph of `comp` on `brace` as (adjacency rows, cls,
    decomposition): comp[v] pendant edges at each v, and (brace, v) when v
    is the one vertex with pendants, else None."""
    g = Graph(len(brace), brace)
    support = [v for v, a in enumerate(comp) if a]
    return (with_pendants(g, dict(enumerate(comp))).adj, cls,
            (g, support[0]) if len(support) == 1 else None)


def _run(unit):
    """Per brace of `kernel_braces(c, [b])`: adj, class, `_survey_brace`'s rows."""
    c, b, jobs = unit
    return [(brace.adj, cls, _survey_brace(brace.adj, auts, jobs))
            for brace, auts, cls in kernel_braces(c, [b])[b]]


@dataclass(frozen=True)
class Survey:
    """Result of one task's enumeration: the max/argmax fold; and aligned
    with `result.maximizers`, the class of the brace each maximizer grew
    on and, when the maximizer is that brace plus bare pendant edges at
    one vertex, (brace, that vertex), else None.  No brace is labelled:
    its identity is worked out only where discovery needs it."""

    result: EnumerationResult
    maximizer_classes: tuple[BraceClass, ...]
    maximizer_braces: tuple[Optional[tuple[Graph, int]], ...]


def survey(
    tasks: Iterable[EnumerationTask], workers: int = 1
) -> dict[EnumerationTask, Survey]:
    """Enumerate every task in one pass, folding each one's class count
    and max/argmax.

    A work unit is one cyclomatic number c and brace size b up to c's
    largest task, with every task of class c that has at least b edges.
    Its worker lists the braces itself (`_run`), so a unit is all it needs,
    and returns plain data per brace: per task the class count, the best
    value and the compositions at it.  One pool runs every unit, the
    largest braces first.  Only the compositions at a task's final best
    are grown and labelled, here.

    Deterministic: the maximizers are sorted canonical strings, so nothing
    depends on `workers`, the unit order or the other tasks.  Repeated
    tasks collapse to one key; a task too small for any brace reads 0
    graphs.  Every task is validated first, so one that is not bicyclic
    or tricyclic raises ValueError before any work starts.
    """
    tasks = list(dict.fromkeys(tasks))
    for task in tasks:
        task.validate()
    units = []
    for c in {t.m - t.n + 1 for t in tasks}:
        mine = [t for t in tasks if t.m - t.n + 1 == c]
        units += [(c, b, [(t, t.m - b) for t in mine if t.m >= b])  # tree edges per task
                  for b in range(max(t.m for t in mine) + 1)]
    units.sort(key=lambda u: u[1], reverse=True)
    # per task: classes, best value, (brace, class, composition) at it
    totals = {task: [0, None, []] for task in tasks}

    def merge(results: Iterable) -> None:
        # as the units come in, so that only each task's running best stays
        for (_, _, jobs), rows in zip(units, results):
            for adj, cls, found in rows:
                for (task, _), (count, best, ties) in zip(jobs, found):
                    total = totals[task]
                    total[0] += count
                    if total[1] is None or best > total[1]:
                        total[1], total[2] = best, []
                    if best == total[1]:
                        total[2] += [(adj, cls, comp) for comp in ties]

    if workers > 1 and len(units) > 1:
        # fork only for its start-up cost: a unit is all its worker reads
        with get_context("fork").Pool(processes=min(workers, len(units))) as pool:
            merge(pool.imap(_run, units))
    else:
        merge(map(_run, units))
    out = {}
    for task, (count, best, argmax) in totals.items():
        rows = [_grow(*tie) for tie in argmax]
        # each class comes out once: no two strings tie, so no classes are compared
        top = sorted((canonical_form(Graph(len(adj), adj)), cls, dec) for adj, cls, dec in rows)
        result = EnumerationResult(task, count, best, tuple(g6 for g6, _, _ in top))
        out[task] = Survey(result, tuple(cls for _, cls, _ in top),
                           tuple(dec for _, _, dec in top))
    return out


def tricyclic_task(m: int) -> EnumerationTask:
    return EnumerationTask(n=m - 2, m=m)


def bicyclic_task(m: int) -> EnumerationTask:
    return EnumerationTask(n=m - 1, m=m)
