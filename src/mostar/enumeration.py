"""Isomorphism-free enumeration of the connected bicyclic and tricyclic
graphs with fixed (n, m), whose cyclomatic number c = m - n + 1 is 2 or 3.

A connected graph with c >= 1 is its brace (its 2-core) with a rooted tree
hung at every brace vertex, and two such graphs are isomorphic exactly when
their braces are and an automorphism of the brace carries one assignment of
trees to the other.  `braces.kernel_braces` lists the braces with their
automorphism groups, `_rooted_trees` the rooted trees by edge count, and
`_hang_trees` keeps one assignment per orbit, so each class comes out once
with no global dedup state.  Nothing is labelled to be generated: `survey`
labels only the braces that have all of a task's edges and the graphs at
the task's best value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from multiprocessing import get_context
from typing import Iterable, Iterator, Optional

from .braces import kernel_braces
from .canon import CANON_MAX_N, CanonCapacityError, canon
from .graphs import Graph, write_graph6
from .indices import edge_mostar


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


def _rooted_trees(k_max: int) -> list[list[tuple[int, ...]]]:
    """Entry k lists the rooted trees with k edges, one per isomorphism
    class (OEIS A000081, shifted by one), each as its parent list: vertex
    i + 1 hangs from parent[i], the root being 0.  The classes come from
    their codes, the tuples of the children's codes sorted by size and
    then code: a tree with k edges is a multiset of subtrees with j edges,
    each costing j + 1."""
    codes: list[list[tuple]] = [[()]]
    for k in range(1, k_max + 1):
        planted = [(j + 1, code) for j in range(k) for code in codes[j]]
        level = []

        def grow(start: int, left: int, kids: tuple) -> None:
            if not left:
                level.append(kids)
            for i in range(start, len(planted)):
                cost, code = planted[i]
                if cost > left:
                    break
                grow(i, left - cost, kids + (code,))

        grow(0, k, ())
        codes.append(level)

    def parents(code: tuple) -> tuple[int, ...]:
        out: list[int] = []

        def walk(node: tuple, me: int) -> None:
            for kid in node:
                out.append(me)
                walk(kid, len(out))

        walk(code, 0)
        return tuple(out)

    return [[parents(code) for code in level] for level in codes]


def _compositions(k: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Every way to write k as an ordered sum of `parts` nonnegative terms."""
    if parts == 1:
        yield (k,)
        return
    for first in range(k, -1, -1):
        for rest in _compositions(k - first, parts - 1):
            yield (first, *rest)


def _hang_trees(
    brace: tuple[int, ...], auts: tuple[tuple[int, ...], ...],
    trees: list[list[tuple[int, ...]]], k: int,
) -> Iterator[tuple[int, ...]]:
    """One graph per isomorphism class of connected graphs whose brace is
    `brace` and which have k edges more, as adjacency rows.  `auts` is the
    brace's automorphism group, the identity first, and `trees` comes from
    `_rooted_trees(k)`.

    Such a graph is the brace with a rooted tree hung at every vertex, and
    two of them are isomorphic exactly when an automorphism of the brace
    carries one assignment of trees to the other.  An assignment is kept
    when it is the least in its orbit: first its composition (the edge
    count at each vertex) must be the least under the whole group, and then
    its trees, as their indices in `trees`, the least under the
    composition's stabiliser, which acts within the vertices of each
    count.  Every orbit holds assignments with the least composition, and
    those form one orbit of the stabiliser, so each class comes out once."""
    n_b = len(brace)
    others = auts[1:]
    for comp in _compositions(k, n_b):
        stab = []
        for g in others:
            image = tuple([comp[x] for x in g])
            if image < comp:
                break
            if image == comp:
                stab.append(g)
        else:
            support = [v for v in range(n_b) if comp[v]]
            where = {v: i for i, v in enumerate(support)}
            moves = [[where[g[v]] for v in support] for g in stab]
            for pick in product(*(range(len(trees[comp[v]])) for v in support)):
                if any(tuple([pick[i] for i in mv]) < pick for mv in moves):
                    continue
                adj = list(brace)
                for v, t in zip(support, pick):
                    base = len(adj) - 1
                    for p in trees[comp[v]][t]:
                        p = v if p == 0 else base + p
                        adj[p] |= 1 << len(adj)
                        adj.append(1 << p)
                yield tuple(adj)


# -- folds -------------------------------------------------------------------


@dataclass
class _Fold:
    """What one work unit, a brace, contributes to its task's survey;
    `merge` is associative, so any split gives the same survey.  The
    graphs at the best value are kept unlabelled: only those that reach
    the task's best are labelled, once every unit is in."""

    count: int = 0
    best: Optional[int] = None
    argmax: list[tuple[int, ...]] = field(default_factory=list)
    braces: list[str] = field(default_factory=list)

    def add(self, adj: tuple[int, ...]) -> None:
        self.count += 1
        value = edge_mostar(Graph(len(adj), adj))
        best = self.best
        if best is None or value > best:
            self.best = value
            self.argmax = [adj]
        elif value == best:
            self.argmax.append(adj)

    def merge(self, other: "_Fold") -> None:
        self.count += other.count
        if other.best is not None and (self.best is None or other.best > self.best):
            self.best, self.argmax = other.best, list(other.argmax)
        elif other.best is not None and other.best == self.best:
            self.argmax.extend(other.argmax)
        self.braces.extend(other.braces)


def _canonical_g6(adj: tuple[int, ...]) -> str:
    """The `canonical_form` of the graph with rows `adj`."""
    g = Graph(len(adj), adj)
    return write_graph6(Graph(g.n, canon(g).canon_adj))


def _fold_brace(args) -> tuple[EnumerationTask, _Fold]:
    """The classes of one task on one brace.  `trees` runs up to the
    number of edges the trees take; when that is 0 the brace itself is the
    one class, and only then is it labelled."""
    task, brace, auts, trees = args
    fold = _Fold()
    for adj in _hang_trees(brace, auts, trees, len(trees) - 1):
        fold.add(adj)
    if len(trees) == 1:
        fold.braces.append(_canonical_g6(brace))
    return task, fold


@dataclass(frozen=True)
class Survey:
    """Result of one task's enumeration: the max/argmax fold and the
    `canonical_form` of every brace visited, sorted."""

    result: EnumerationResult
    braces: tuple[str, ...]


def survey(
    tasks: Iterable[EnumerationTask], workers: int = 1
) -> dict[EnumerationTask, Survey]:
    """Enumerate every task in one pass, folding max/argmax and the braces
    of each.

    A task's work units are its braces with at most m edges, from
    `braces.kernel_braces`, each with the classes `_hang_trees` grows on
    it.  One pool runs every unit, those with the most tree edges first.

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
    catalogue = {c: kernel_braces(c, range(max(t.m for t in tasks) + 1))
                 for c in {t.m - t.n + 1 for t in tasks}}
    jobs = [(task, brace.adj, auts, task.m - b)
            for task in tasks
            for b, found in catalogue[task.m - task.n + 1].items() if b <= task.m
            for brace, auts in found]
    # the most tree edges, then the largest brace, first
    jobs.sort(key=lambda job: (job[3], len(job[1])), reverse=True)
    trees = _rooted_trees(jobs[0][3] if jobs else 0)
    units = [(task, brace, auts, trees[:k + 1]) for task, brace, auts, k in jobs]
    totals = {task: _Fold() for task in tasks}

    def merge(partials: Iterable[tuple[EnumerationTask, _Fold]]) -> None:
        # as the units come in, so that only each task's running best stays
        for task, fold in partials:
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
        result = EnumerationResult(
            task=task,
            graphs_visited=total.count,
            max_value=total.best,
            maximizers=tuple(sorted(_canonical_g6(adj) for adj in total.argmax)),
        )
        out[task] = Survey(result=result, braces=tuple(sorted(total.braces)))
    return out


def maximize(task: EnumerationTask, workers: int = 1) -> EnumerationResult:
    """Fold edge_mostar over the enumeration stream; collect all argmax
    canonical forms.  Empty classes yield graphs_visited=0 explicitly."""
    return survey([task], workers=workers)[task].result


def tricyclic_task(m: int) -> EnumerationTask:
    return EnumerationTask(n=m - 2, m=m)


def bicyclic_task(m: int) -> EnumerationTask:
    return EnumerationTask(n=m - 1, m=m)
