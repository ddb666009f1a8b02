"""Isomorphism-free enumeration of the connected bicyclic and tricyclic
graphs with fixed (n, m), whose cyclomatic number c = m - n + 1 is 2 or 3.

A connected graph with c >= 1 is its brace (its 2-core) with a rooted tree
hung at every brace vertex, and two such graphs are isomorphic exactly when
their braces are and an automorphism of the brace carries one assignment of
trees to the other.  `braces.kernel_braces` lists the braces with their
automorphism groups, and `_compositions` keeps one composition (tree edges
per brace vertex) per orbit and counts its classes by Burnside from the
rooted-tree counts, so no tree is listed and no global dedup state kept.
Nothing is labelled to be generated and nothing built to be scored: by the
strict trees-to-stars step in `indices`, each composition's one best class
is its all-star graph, whose index is read off its brace's
`indices.pendant_model`, computed once per brace for every task that uses
it.  `survey` labels only the braces that have all of a task's edges,
reading their pendant tails off the same model, and the graphs at the
task's best, each with its brace's class from `kernel_braces` and, if it
is that brace plus pendant edges at one vertex, that vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import prod
from multiprocessing import get_context
from typing import Iterable, Iterator, Optional

from .braces import BraceClass, kernel_braces
from .canon import CANON_MAX_N, CanonCapacityError, canon, canonical_form
from .graphs import Graph, write_graph6
from .indices import model_tails, pendant_model


@dataclass(frozen=True)
class EnumerationTask:
    n: int
    m: int

    def validate(self) -> None:
        if self.n < 0 or self.m < 0:
            raise ValueError("order and size must be nonnegative")
        if self.n > CANON_MAX_N:
            raise CanonCapacityError(
                f"enumeration supports n <= {CANON_MAX_N}, got {self.n}"
            )
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


def _compositions(
    n_b: int, auts: tuple[tuple[int, ...], ...], counts: list[int], k: int,
) -> Iterator[tuple[tuple[int, ...], list[int], int]]:
    """The isomorphism classes of connected graphs whose brace, on n_b
    vertices, has k edges fewer, grouped by composition: each kept
    composition (the edge count at each brace vertex, as the gaps n_b - 1
    bars leave in k + n_b - 1 slots), its support (the vertices of nonzero
    count) and its number of classes.  `auts` is the brace's automorphism
    group, the identity first, and `counts` is `_rooted_tree_counts(k)`.

    Such a graph is the brace with a rooted tree hung at every vertex, and
    two of them are isomorphic exactly when an automorphism of the brace
    carries one assignment of trees to the other.  A composition is kept
    when it is the least under the whole group.  Every orbit holds
    assignments with the least composition, and those form one orbit of
    its stabiliser, so the composition's classes are the stabiliser's
    orbits on its tree assignments.  By Burnside they number the mean over
    the stabiliser of the assignments each element fixes: those constant
    on each of its cycles on the support, one tree per cycle, of its
    vertices' count."""
    others, end = auts[1:], k + n_b - 1
    for bars in combinations(range(end), n_b - 1):
        comp = tuple([b - a - 1 for a, b in zip((-1, *bars), (*bars, end))])
        stab = []
        for g in others:
            image = tuple([comp[x] for x in g])
            if image < comp:
                break
            if image == comp:
                stab.append(g)
        else:
            support = [v for v in range(n_b) if comp[v]]
            fixed = prod([counts[comp[v]] for v in support])  # by the identity
            for g in stab:
                seen, kept = 0, 1
                for v in support:
                    if not seen >> v & 1:
                        kept *= counts[comp[v]]
                        u = v
                        while not seen >> u & 1:
                            seen |= 1 << u
                            u = g[u]
                fixed += kept
            yield comp, support, fixed // (1 + len(stab))


def _grow(brace: tuple[int, ...], comp: tuple[int, ...]) -> tuple[int, ...]:
    """The adjacency rows of `brace` with comp[v] pendant edges at each v."""
    adj = list(brace)
    for v, a in enumerate(comp):
        for _ in range(a):
            adj[v] |= 1 << len(adj)
            adj.append(1 << v)
    return tuple(adj)


# -- folds -------------------------------------------------------------------


_Row = tuple[tuple[int, ...], BraceClass, Optional[tuple[Graph, int]]]


@dataclass
class _Fold:
    """What one work unit, a brace, contributes to one task's survey;
    `merge` is associative, so any split gives the same survey.  The
    graphs at the best value are kept unlabelled, with their brace's class
    and decomposition: only those that reach the task's best are labelled,
    once every unit is in.  Each brace is kept as its canonical form,
    tails and class."""

    count: int = 0
    best: Optional[int] = None
    argmax: list[_Row] = field(default_factory=list)
    braces: list[tuple[str, tuple, BraceClass]] = field(default_factory=list)

    def keep(self, value: int, graphs: list[_Row]) -> None:
        if self.best is None or value > self.best:
            self.best, self.argmax = value, []
        if value == self.best:
            self.argmax += graphs

    def merge(self, other: "_Fold") -> None:
        self.count += other.count
        if other.best is not None:
            self.keep(other.best, other.argmax)
        self.braces.extend(other.braces)


def _label(brace: tuple[int, ...], model) -> tuple[str, tuple]:
    """The brace's `canonical_form` and, per vertex of that form, its
    (poly, holds_from) from `indices.model_tails`."""
    res = canon(Graph(len(brace), brace))
    tails = [None] * res.n
    for v, tail in zip(res.labeling, model_tails(model)):
        tails[v] = tail
    return write_graph6(Graph(res.n, res.canon_adj)), tuple(tails)


def _fold_brace(args) -> list[tuple[EnumerationTask, _Fold]]:
    """The classes of every task on one brace, counted per composition and
    scored unbuilt off its one `pendant_model`.  A composition's best class
    is its all-star graph, comp[v] pendant edges at each v, and no other
    class ties it (the strict trees-to-stars step in `indices`), so it is
    scored as the brace term plus k(m - 1) and built only when it reaches
    the running best, with (brace, attach) when its pendants all hang at
    attach, else None.  Each task comes with its tree edge count k; when
    that is 0 the brace itself is the one class, and only then labelled."""
    brace, auts, cls, counts, jobs = args
    model, g = pendant_model(brace), Graph(len(brace), brace)
    _, sums, rows = model
    out = []
    for task, k in jobs:
        fold = _Fold()
        for comp, support, classes in _compositions(len(brace), auts, counts, k):
            fold.count += classes
            terms = sums
            for v in support:
                a = comp[v]
                terms = [x + a * s for x, s in zip(terms, rows[v])]
            top = sum(map(abs, terms)) + k * (task.m - 1)
            if fold.best is None or top >= fold.best:
                fold.keep(top, [(_grow(brace, comp), cls,
                                 (g, support[0]) if len(support) == 1 else None)])
        if not k:
            fold.braces.append((*_label(brace, model), cls))
        out.append((task, fold))
    return out


@dataclass(frozen=True)
class Survey:
    """Result of one task's enumeration: the max/argmax fold, the
    `canonical_form` of every brace with all of the task's edges, sorted,
    and aligned with them each brace's tails, per vertex of that form
    (poly, holds_from) as `indices.pendant_tails` gives them, and its
    class; and aligned with `result.maximizers`, the class of the brace
    each maximizer grew on and, when the maximizer is that brace plus bare
    pendant edges at one vertex, (brace, that vertex), else None."""

    result: EnumerationResult
    braces: tuple[str, ...]
    tails: tuple[tuple[tuple[tuple[int, int, int], int], ...], ...]
    classes: tuple[BraceClass, ...]
    maximizer_classes: tuple[BraceClass, ...]
    maximizer_braces: tuple[Optional[tuple[Graph, int]], ...]


def survey(
    tasks: Iterable[EnumerationTask], workers: int = 1
) -> dict[EnumerationTask, Survey]:
    """Enumerate every task in one pass, folding max/argmax and the braces
    of each.

    A work unit is one brace from `braces.kernel_braces`, listed per class
    up to that class's largest task, with every task of its class that has
    at least its edges; the unit computes the brace's `pendant_model` once
    and, for each task, counts the classes of every composition
    `_compositions` keeps and scores only its all-star graph, the one best
    class of the composition (the strict trees-to-stars proof in the
    `indices` docstring).  One pool runs every unit, those with the most
    tree edges first.

    Deterministic: the folds keep counts, values and unlabelled graphs, and
    the maximizers and braces are reported as sorted canonical strings, so
    the outcome is independent of `workers`.  Repeated tasks collapse to
    one key; a task too small for any brace reads 0 graphs.  Every task is
    validated, so one that is not bicyclic or tricyclic raises ValueError,
    before any work starts.
    """
    tasks = list(dict.fromkeys(tasks))
    for task in tasks:
        task.validate()
    jobs = []
    for c in {t.m - t.n + 1 for t in tasks}:
        mine = [t for t in tasks if t.m - t.n + 1 == c]
        for b, found in kernel_braces(c, range(max(t.m for t in mine) + 1)).items():
            ks = [(t, t.m - b) for t in mine if t.m >= b]  # tree edges per task
            jobs += [(brace.adj, auts, cls, ks, max(k for _, k in ks))
                     for brace, auts, cls in found]
    # the most tree edges, then the largest brace, first
    jobs.sort(key=lambda job: (job[4], len(job[0])), reverse=True)
    counts = _rooted_tree_counts(jobs[0][4] if jobs else 0)
    units = [(brace, auts, cls, counts[:top + 1], ks) for brace, auts, cls, ks, top in jobs]
    totals = {task: _Fold() for task in tasks}

    def merge(partials: Iterable[list[tuple[EnumerationTask, _Fold]]]) -> None:
        # as the units come in, so that only each task's running best stays
        for folds in partials:
            for task, fold in folds:
                totals[task].merge(fold)

    if workers > 1 and len(units) > 1:
        ctx = get_context("fork")
        processes = min(workers, len(units))
        # a unit can take well under the pool's own cost of one hand-off,
        # so they go out in runs of consecutive units, about 16 per process
        with ctx.Pool(processes=processes) as pool:
            merge(pool.imap(_fold_brace, units, chunksize=1 + len(units) // (16 * processes)))
    else:
        merge(map(_fold_brace, units))
    out = {}
    for task, total in totals.items():
        # each class comes out once: no two strings tie, so no classes are compared
        top = sorted((canonical_form(Graph(len(adj), adj)), cls, dec)
                     for adj, cls, dec in total.argmax)
        braces = sorted(total.braces)
        result = EnumerationResult(task, total.count, total.best, tuple(g6 for g6, _, _ in top))
        out[task] = Survey(result, tuple(g6 for g6, _, _ in braces),
                           tuple(tails for _, tails, _ in braces),
                           tuple(cls for _, _, cls in braces),
                           tuple(cls for _, cls, _ in top), tuple(dec for _, _, dec in top))
    return out


def tricyclic_task(m: int) -> EnumerationTask:
    return EnumerationTask(n=m - 2, m=m)


def bicyclic_task(m: int) -> EnumerationTask:
    return EnumerationTask(n=m - 1, m=m)
