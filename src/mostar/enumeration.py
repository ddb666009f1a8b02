"""Isomorphism-free enumeration of connected graphs with fixed (n, m).

Generation follows the canonical-augmentation scheme: spanning trees on n
vertices are grown by leaf additions, then edges are added one at a time
up to the target size.  A child is kept only when the edge (or leaf) that
produced it lies in the automorphism orbit of the child's canonical
deletion edge, which guarantees exactly one representative per isomorphism
class with no global dedup state.  That memorylessness is what makes the
parallel split trivial: every spanning-tree seed owns an independent
subtree of the generation forest, and fold results merge associatively,
so output is identical for any worker count.

Acceptance is a function of the child and the edge just added alone, never
of the size the walk is heading for (lazy labelling, below, changes only
whether canon data comes back).  It reads the child's bridges off the bridge
sides its parent carries (step 0), but those are the child's own bridges,
whichever parent they come from.  So the accepted nodes with m edges in the
walk from the trees on n vertices are one representative per class of
connected (n, m) graphs, whatever size the walk goes on to.  A tricyclic
walk (n vertices, n + 2 edges) therefore passes through every bicyclic graph
on n vertices at level n + 1, and `survey` reads both classes, and any other
size with the same n, off one walk.

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
children, so it is labelled.  The fold (`_Fold.add`) then labels a graph
only when its value is at least the seed's running best or it is a brace
(minimum degree >= 2), the only graphs whose canonical form it keeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Iterable, Iterator, Optional

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


# -- folds -------------------------------------------------------------------


@dataclass
class _Fold:
    """What one tree seed's subtree (or several merged) contributes to one
    task's survey; `merge` is associative, so any split gives the same
    survey."""

    count: int = 0
    best: Optional[int] = None
    argmax: list[str] = field(default_factory=list)
    braces: list[str] = field(default_factory=list)

    def add(self, n: int, adj: tuple[int, ...], cres: Optional[CanonResult]) -> None:
        self.count += 1
        g = Graph(n, adj)
        value = edge_mostar(g)
        # every row with two or more bits: minimum degree >= 2
        brace = all(row & (row - 1) for row in adj)
        best = self.best
        # only a value at least the running best or a brace is kept, so
        # only those graphs are labelled
        if best is None or value >= best or brace:
            if cres is None:
                cres = canon(g)
            canon_g6 = write_graph6(Graph(n, cres.canon_adj))
            if best is None or value > best:
                self.best = value
                self.argmax = [canon_g6]
            elif value == best:
                self.argmax.append(canon_g6)
            if brace:
                self.braces.append(canon_g6)

    def merge(self, other: "_Fold") -> None:
        self.count += other.count
        if other.best is not None and (self.best is None or other.best > self.best):
            self.best, self.argmax = other.best, list(other.argmax)
        elif other.best is not None and other.best == self.best:
            self.argmax.extend(other.argmax)
        self.braces.extend(other.braces)


def _fold_seed(args) -> dict[int, _Fold]:
    """One tree seed's subtree, folded at each requested size."""
    n, sizes, seed_adj, cres = args
    folds = {m: _Fold() for m in sizes}
    for m, adj, ccres in _augment(n, seed_adj, cres, _bridge_sides(seed_adj), n - 1, sizes):
        folds[m].add(n, adj, ccres)
    return folds


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

    Tasks on the same n share their walk: the graphs with n vertices and m
    edges are exactly the accepted nodes with m edges in the
    edge-augmentation walk from the trees on n vertices, whatever size the
    walk goes on to, because acceptance reads only the child and its new
    edge.  So a bicyclic task (n, n + 1) is read off at level n + 1 of the
    tricyclic walk (n, n + 2) on its way down.  The trees are walked once,
    up to the largest n, and one pool runs every (n, tree seed) pair,
    largest n first; a seed folds each requested size of its n.

    Deterministic: each task's folds merge in tree order, so the outcome
    is independent of `workers`.  Repeated tasks collapse to one key; an
    infeasible task reads 0 graphs.  Every task is validated before any
    work starts.
    """
    tasks = list(dict.fromkeys(tasks))
    sizes: dict[int, set[int]] = {}
    for task in tasks:
        task.validate()
        if task.feasible:
            sizes.setdefault(task.n, set()).add(task.m)
    levels = _tree_levels(max(sizes, default=0))
    args = [(n, tuple(sorted(sizes[n])), adj, cres)
            for n in sorted(sizes, reverse=True) for adj, cres in levels[n]]
    if workers > 1 and len(args) > 1:
        ctx = get_context("fork")
        with ctx.Pool(processes=min(workers, len(args))) as pool:
            partials = pool.map(_fold_seed, args, chunksize=1)
    else:
        partials = [_fold_seed(a) for a in args]
    totals = {task: _Fold() for task in tasks}
    for (n, *_), folds in zip(args, partials):
        for m, fold in folds.items():
            totals[EnumerationTask(n, m)].merge(fold)
    out = {}
    for task, total in totals.items():
        result = EnumerationResult(
            task=task,
            graphs_visited=total.count,
            max_value=total.best,
            maximizers=tuple(sorted(total.argmax)),
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
