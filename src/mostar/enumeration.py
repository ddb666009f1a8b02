"""Isomorphism-free enumeration of connected graphs with fixed (n, m).

Two generators give one representative per isomorphism class, with no
global dedup state.

Brace-first, for every task with cyclomatic number c = m - n + 1 of 2 or 3
(the bicyclic and tricyclic classes the verification and the atlas ask
for).  A connected graph with c >= 1 is its brace (its 2-core) with a
rooted tree hung at every brace vertex, and two such graphs are isomorphic
exactly when their braces are and an automorphism of the brace carries one
assignment of trees to the other.  `braces.kernel_braces` lists the braces
with their automorphism groups, `_rooted_trees` the rooted trees by edge
count, and `_hang_trees` keeps one assignment per orbit.  Nothing is
labelled to be generated: `survey` labels only the braces that have all of
a task's edges and the graphs at the task's best value.

The walk, for every other (n, m), behind `enumerate_connected`, and the
cross-check of the brace-first classes.  It follows the
canonical-augmentation scheme: spanning trees on n vertices are grown by
leaf additions, then edges are added one at a time up to the target size.
A child is kept only when the edge (or leaf) that produced it lies in the
automorphism orbit of the child's canonical deletion edge, which
guarantees exactly one representative per isomorphism class.  Every
spanning-tree seed owns an independent subtree of the generation forest,
so the seeds split across workers.

Acceptance is a function of the child and the edge just added alone, never
of the size the walk is heading for (lazy labelling, below, changes only
whether canon data comes back).  It reads the child's bridges off the bridge
sides its parent carries (step 0), but those are the child's own bridges,
whichever parent they come from.  So the accepted nodes with m edges in the
walk from the trees on n vertices are one representative per class of
connected (n, m) graphs, whatever size the walk goes on to, and `survey`
reads every walked size with the same n off one walk.

The canonical deletion edge of a child is defined on its non-bridge edges
(deleting one keeps the graph connected): take those with the smallest
`_edge_inv` score (sorted end degrees, then the sorted degrees of the
vertices adjacent to either end), and among them the edge whose sorted pair of
canonical labels is smallest.  A child made by adding e = uv to its parent
is tested against that rule cheapest step first, and everything the
parent's degrees and bridges decide is decided before any child is built:

0. Every node above the last level carries the side of each of its bridges
   xy, x < y: the vertices reachable from x without xy.  `_bridge_sides`
   finds them on the tree seeds, one reachability pass per edge; below the
   seeds they are inherited with no search.  Adding uv creates no bridge,
   and a parent bridge xy stays a bridge of the child, with the same two
   sides, exactly when u and v lie on the same side of it.  uv itself
   closes a cycle, so it is never a bridge.
1. Once per parent, `_candidates` sorts the parent's edges by degree pair
   and scans that list for each non-edge uv.  The child's edges are the
   parent's plus uv, and only the degrees of u and v rise, by one.  The
   scan skips each bridge that uv does not bypass, drops uv when an edge
   has a smaller child degree pair than uv's, and collects the edges with
   an equal pair as uv's pair ties.  It stops at the first parent pair
   above uv's child pair: both degrees only rise, so no later edge can tie
   or undercut.  The pair is the score's leading component, so an edge
   with a larger pair can be neither the minimum nor a tie: skipping it
   selects the same canonical deletion edge as scoring every edge.
2. The scan reads only degrees and bridges, which automorphisms preserve,
   so the surviving non-edges are a union of orbits.  `pair_orbit_reps`
   runs on them alone, and their representatives are exactly those of all
   non-edges that survive.  One child per representative is built.
3. `_accept_edge_child` computes the full score of e and of its pair ties
   only, and rejects as soon as a tie scores strictly lower than e: then
   e is not of minimum score and cannot be the canonical deletion edge.
4. Otherwise e's score is the minimum, and e with the pair ties sharing
   its score (the tie set) are exactly the candidates the full rule ranks.
   Only now is the child canonically labelled.  If e is the only candidate
   or the best-labelled one it is accepted; if not, accept when e and the
   best candidate share an orbit under the automorphism group.  The tie
   set is closed under automorphisms, which preserve scores and bridges,
   so the orbit walk runs on it alone.

Labelling is lazy where nothing needs it.  A child at the last level has
no children, so its canon data only serves the fold: when its tie set is
{e} it is accepted unlabelled, since the only candidate is the canonical
deletion edge whatever the labels.  Only the deepest requested size is
such a last level: a node at a shallower requested size still has
children, so it is labelled.  The fold then labels a walked graph only
when it is a brace (minimum degree >= 2) or reaches the task's best value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from multiprocessing import get_context
from typing import Iterable, Iterator, Optional

from .braces import kernel_braces
from .canon import CANON_MAX_N, CanonCapacityError, CanonResult, canon, pair_orbit_reps
from .graphs import Graph, edge_pairs, reachable_mask, write_graph6
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

    @property
    def feasible(self) -> bool:
        return self.n >= 1 and self.n - 1 <= self.m <= self.n * (self.n - 1) // 2

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


# -- spanning-tree seeds -----------------------------------------------------


def _tree_children(k: int, adj: tuple[int, ...], cres: CanonResult):
    """Canonically accepted leaf extensions of a k-vertex tree."""
    out = []
    seen_orbits = set()
    for v in range(k):
        o = cres.orbit_of[v]
        if o in seen_orbits:
            continue
        seen_orbits.add(o)
        child = tuple(
            row | (1 << k) if i == v else row for i, row in enumerate(adj)
        ) + (1 << v,)
        ccres = canon(Graph(k + 1, child))
        lam = ccres.labeling
        best_leaf = None
        for w in range(k + 1):
            if child[w].bit_count() == 1:
                if best_leaf is None or lam[w] < lam[best_leaf]:
                    best_leaf = w
        if ccres.orbit_of[k] == ccres.orbit_of[best_leaf]:
            out.append((child, ccres))
    return out


def _tree_levels(n_max: int) -> list[list[tuple[tuple[int, ...], CanonResult]]]:
    """One walk of the leaf-addition tree: entry k holds one representative
    per isomorphism class of trees on k vertices, for k = 1..n_max (entry 0
    is empty)."""
    levels: list[list[tuple[tuple[int, ...], CanonResult]]] = [[]]
    if n_max < 1:
        return levels
    level = [((0,), canon(Graph(1, (0,))))]
    levels.append(level)
    for k in range(1, n_max):
        level = [c for adj, cres in level for c in _tree_children(k, adj, cres)]
        levels.append(level)
    return levels


def trees(n: int) -> Iterator[tuple[tuple[int, ...], CanonResult]]:
    """One representative per isomorphism class of trees on n vertices."""
    if n >= 1:
        yield from _tree_levels(n)[n]


# -- canonical edge augmentation ---------------------------------------------


def _edge_inv(adj: tuple[int, ...], deg: list[int], a: int, b: int):
    """Cheap isomorphism-invariant edge score used to pre-filter the
    canonical-deletion test before paying for a full canonical labeling."""
    da, db = deg[a], deg[b]
    if da > db:
        da, db = db, da
    nbr = []
    row = adj[a] | adj[b]
    while row:
        low = row & -row
        nbr.append(deg[low.bit_length() - 1])
        row ^= low
    nbr.sort()
    return (da, db, tuple(nbr))


def _bridge_sides(adj: tuple[int, ...]) -> dict[tuple[int, int], int]:
    """The sides of the edges of a tree seed, every one a bridge: for xy,
    x < y, the vertices reachable from x without xy.  Every node below the
    seeds inherits its parent's sides (`_augment`)."""
    cut = list(adj)
    sides = {}
    for x, y in edge_pairs(adj):
        cut[x], cut[y] = adj[x] ^ 1 << y, adj[y] ^ 1 << x
        sides[x, y] = reachable_mask(cut, x)
        cut[x], cut[y] = adj[x], adj[y]
    return sides


def _candidates(
    n: int, adj: tuple[int, ...], sides: dict[tuple[int, int], int]
) -> dict[tuple[int, int], list[tuple[int, int]]]:
    """Step 1 of the acceptance test, decided on the parent: map each
    non-edge uv, u < v, that survives it to its pair ties, the non-bridge
    edges of the child adj + uv whose degree pair equals uv's.  A non-edge
    is dropped when such an edge has a smaller pair.  `sides` holds the
    bridge sides of `adj`."""
    deg = [row.bit_count() for row in adj]
    # a degree pair (lo, hi) as the code lo * n + hi, which orders as pairs do
    scan = []
    for x, y in edge_pairs(adj):
        dx, dy = deg[x], deg[y]
        key = dx * n + dy if dx <= dy else dy * n + dx
        scan.append((key, x, y, sides.get((x, y), 0)))
    scan.sort()
    full = (1 << n) - 1
    live = {}
    for u in range(n):
        du = deg[u] + 1
        row = ~adj[u] & full & -(2 << u)
        while row:
            low = row & -row
            row ^= low
            v = low.bit_length() - 1
            dv = deg[v] + 1
            e_key = du * n + dv if du <= dv else dv * n + du
            ends = 1 << u | low
            ties = []
            for key, x, y, side in scan:
                if key > e_key:
                    break  # child pairs only grow, so none further ties or is lower
                if side and not (side >> u ^ side >> v) & 1:
                    continue  # a parent bridge that uv does not bypass
                dx, dy = deg[x] + (ends >> x & 1), deg[y] + (ends >> y & 1)
                key = dx * n + dy if dx <= dy else dy * n + dx
                if key < e_key:
                    ties = None
                    break
                if key == e_key:
                    ties.append((x, y))
            if ties is not None:
                live[u, v] = ties
    return live


def _accept_edge_child(
    n: int, child: tuple[int, ...], a: int, b: int,
    pair_ties: list[tuple[int, int]], label: bool,
) -> tuple[bool, Optional[CanonResult]]:
    """Steps 3-4 of the acceptance test: does (a, b) sit in the orbit of the
    canonical deletion edge of `child`?  Returns (accepted, the child's
    canon data).  `pair_ties` comes from `_candidates`.  With `label` false,
    a child whose tie set is {(a, b)} is accepted without labelling and the
    canon data is None."""
    e = (a, b) if a < b else (b, a)
    ties = [e]
    if pair_ties:
        deg = [row.bit_count() for row in child]
        e_inv = _edge_inv(child, deg, a, b)
        for f in pair_ties:
            inv = _edge_inv(child, deg, *f)
            if inv < e_inv:
                return False, None
            if inv == e_inv:
                ties.append(f)
    if len(ties) == 1 and not label:
        return True, None
    cres = canon(Graph(n, child))
    lam = cres.labeling

    def canon_key(f):
        x, y = lam[f[0]], lam[f[1]]
        return (x, y) if x < y else (y, x)

    best = min(ties, key=canon_key)
    if best == e:
        return True, cres
    reps = pair_orbit_reps(n, cres.generators, ties)
    if reps[e] == reps[best]:
        return True, cres
    return False, None


def _augment(
    n: int,
    adj: tuple[int, ...],
    cres: Optional[CanonResult],
    sides: Optional[dict[tuple[int, int], int]],
    m_cur: int,
    sizes: tuple[int, ...],
) -> Iterator[tuple[int, tuple[int, ...], Optional[CanonResult]]]:
    """Accepted descendants of `adj` (itself included) whose size is in
    `sizes`, as (size, adjacency, canon data), depth first down to the
    largest size.  A node at the largest size gets bridge sides None, and
    canon data None when accepting it needed no labelling; a node above it
    always gets both, since its own children are generated from its
    automorphisms and bridges."""
    if m_cur in sizes:
        yield m_cur, adj, cres
    m_last = sizes[-1]
    if m_cur == m_last:
        return
    live = _candidates(n, adj, sides)
    if not live:
        return
    reps = pair_orbit_reps(n, cres.generators, list(live))
    last = m_cur + 1 == m_last
    for u, v in sorted(set(reps.values())):
        child = tuple(
            r | (1 << v) if i == u else (r | (1 << u) if i == v else r)
            for i, r in enumerate(adj)
        )
        accepted, ccres = _accept_edge_child(n, child, u, v, live[u, v], label=not last)
        if accepted:
            # a bridge that uv does not bypass keeps its two sides
            child_sides = None if last else {
                f: s for f, s in sides.items() if not (s >> u ^ s >> v) & 1
            }
            yield from _augment(n, child, ccres, child_sides, m_cur + 1, sizes)


def enumerate_connected(task: EnumerationTask) -> Iterator[Graph]:
    """Exactly one representative per isomorphism class of connected graphs
    with the task's order and size."""
    task.validate()
    if not task.feasible:
        return
    n = task.n
    for seed, cres in trees(n):
        for _, adj, _ in _augment(n, seed, cres, _bridge_sides(seed), n - 1, (task.m,)):
            yield Graph(n, adj)


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
    """What one work unit (a tree seed's subtree, or one brace) contributes
    to one task's survey; `merge` is associative, so any split gives the
    same survey.  The graphs at the best value are kept unlabelled: only
    those that reach the task's best are labelled, once every unit is in."""

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


def _canonical_g6(adj: tuple[int, ...], cres: Optional[CanonResult] = None) -> str:
    """The `canonical_form` of the graph with rows `adj`, from `cres` when
    its canon data is at hand."""
    g = Graph(len(adj), adj)
    return write_graph6(Graph(g.n, (cres or canon(g)).canon_adj))


def _fold_seed(args) -> dict[EnumerationTask, _Fold]:
    """One tree seed's subtree, folded at each requested size."""
    n, sizes, seed_adj, cres = args
    folds = {m: _Fold() for m in sizes}
    for m, adj, ccres in _augment(n, seed_adj, cres, _bridge_sides(seed_adj), n - 1, sizes):
        folds[m].add(adj)
        # every row with two or more bits: minimum degree >= 2
        if all(row & (row - 1) for row in adj):
            folds[m].braces.append(_canonical_g6(adj, ccres))
    return {EnumerationTask(n, m): fold for m, fold in folds.items()}


def _fold_brace(args) -> dict[EnumerationTask, _Fold]:
    """The classes of one task on one brace.  `trees` runs up to the
    number of edges the trees take; when that is 0 the brace itself is the
    one class, and only then is it labelled."""
    task, brace, auts, trees = args
    fold = _Fold()
    for adj in _hang_trees(brace, auts, trees, len(trees) - 1):
        fold.add(adj)
    if len(trees) == 1:
        fold.braces.append(_canonical_g6(brace))
    return {task: fold}


def _run_unit(unit) -> dict[EnumerationTask, _Fold]:
    fold, args = unit
    return fold(args)


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

    A task with cyclomatic number c = m - n + 1 of 2 or 3 (bicyclic or
    tricyclic) is built from braces: its work units are its braces with at
    most m edges, from `braces.kernel_braces`, each with the classes
    `_hang_trees` grows on it.  Every other task is read off the
    edge-augmentation walk: the graphs with n vertices and m edges are
    exactly the accepted nodes with m edges in the walk from the trees on
    n vertices, whatever size the walk goes on to, because acceptance reads
    only the child and its new edge; so tasks on the same n share a walk,
    whose units are its tree seeds, and a seed folds each requested size
    of its n.  One pool runs every unit, the brace units with the most tree
    edges first.

    Deterministic: the folds keep counts, values and unlabelled graphs, and
    the maximizers and braces are reported as sorted canonical strings, so
    the outcome is independent of `workers`.  Repeated tasks collapse to
    one key; an infeasible task reads 0 graphs.  Every task is validated
    before any work starts.
    """
    tasks = list(dict.fromkeys(tasks))
    sizes: dict[int, set[int]] = {}
    brace_tasks = []
    for task in tasks:
        task.validate()
        if task.feasible:
            if task.m - task.n + 1 in (2, 3):
                brace_tasks.append(task)
            else:
                sizes.setdefault(task.n, set()).add(task.m)
    catalogue = {c: kernel_braces(c, range(max(t.m for t in brace_tasks) + 1))
                 for c in {t.m - t.n + 1 for t in brace_tasks}}
    jobs = [(task, brace.adj, auts, task.m - b)
            for task in brace_tasks
            for b, found in catalogue[task.m - task.n + 1].items() if b <= task.m
            for brace, auts in found]
    # the most tree edges, then the largest brace, first
    jobs.sort(key=lambda job: (job[3], len(job[1])), reverse=True)
    trees = _rooted_trees(jobs[0][3] if jobs else 0)
    units = [(_fold_brace, (task, brace, auts, trees[:k + 1]))
             for task, brace, auts, k in jobs]
    levels = _tree_levels(max(sizes, default=0))
    units += [(_fold_seed, (n, tuple(sorted(sizes[n])), adj, cres))
              for n in sorted(sizes, reverse=True) for adj, cres in levels[n]]
    totals = {task: _Fold() for task in tasks}

    def merge(partials: Iterable[dict[EnumerationTask, _Fold]]) -> None:
        # as the units come in, so that only each task's running best stays
        for folds in partials:
            for task, fold in folds.items():
                totals[task].merge(fold)

    if workers > 1 and len(units) > 1:
        ctx = get_context("fork")
        processes = min(workers, len(units))
        # a unit can take well under the pool's own cost of one hand-off,
        # so they go out in runs of consecutive units, about 16 per process
        with ctx.Pool(processes=processes) as pool:
            merge(pool.imap(_run_unit, units, chunksize=1 + len(units) // (16 * processes)))
    else:
        merge(map(_run_unit, units))
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
