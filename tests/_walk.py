"""The canonical-augmentation walk: one representative per isomorphism
class of connected graphs with n vertices and m edges, for any (n, m).
It shares no generation code with `mostar.enumeration`, which
builds only the bicyclic and tricyclic classes, from braces, so the tests
use it as the independent oracle for those classes and for the canon
inputs it produces (McKay, "Isomorph-free exhaustive generation",
J. Algorithms 26, 1998).  Its labellings and automorphism groups come
from `_helpers.reference_canon`, so it shares no code with the `canon`
search under test; of `mostar.canon` it reads only `pair_orbit_reps`.

Spanning trees on n vertices are grown by leaf additions, then edges are
added one at a time up to m.  A child is kept only when the edge (or leaf)
that produced it lies in the automorphism orbit of the child's canonical
deletion edge, which guarantees exactly one representative per isomorphism
class with no global dedup state.

Acceptance is a function of the child and the edge just added alone.  It
reads the child's bridges off the bridge sides its parent carries (step 0),
but those are the child's own bridges, whichever parent they come from.

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

Labelling is lazy where nothing needs it.  A child with m edges has no
children, so its canon data serves nothing: when its tie set is {e} it is
accepted unlabelled, since the only candidate is the canonical deletion
edge whatever the labels.
"""

from __future__ import annotations

from typing import Iterator, Optional

from mostar.canon import pair_orbit_reps
from mostar.graphs import Graph, edge_pairs
from _helpers import ReferenceCanon, reachable_mask, reference_canon


# -- spanning-tree seeds -----------------------------------------------------


def _tree_children(k: int, adj: tuple[int, ...], cres: ReferenceCanon):
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
        ccres = reference_canon(Graph(k + 1, child))
        lam = ccres.labeling
        best_leaf = None
        for w in range(k + 1):
            if child[w].bit_count() == 1:
                if best_leaf is None or lam[w] < lam[best_leaf]:
                    best_leaf = w
        if ccres.orbit_of[k] == ccres.orbit_of[best_leaf]:
            out.append((child, ccres))
    return out


def trees(n: int) -> list[tuple[tuple[int, ...], ReferenceCanon]]:
    """One representative per isomorphism class of trees on n vertices,
    with its canon data."""
    if n < 1:
        return []
    level = [((0,), reference_canon(Graph(1, (0,))))]
    for k in range(1, n):
        level = [c for adj, cres in level for c in _tree_children(k, adj, cres)]
    return level


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
) -> tuple[bool, Optional[ReferenceCanon]]:
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
    cres = reference_canon(Graph(n, child))
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
    cres: Optional[ReferenceCanon],
    sides: Optional[dict[tuple[int, int], int]],
    m_cur: int,
    m: int,
) -> Iterator[tuple[int, ...]]:
    """Accepted descendants of `adj` (itself included) with m edges, depth
    first.  A node with m edges gets bridge sides None, and canon data None
    when accepting it needed no labelling; a node above it always gets
    both, since its own children are generated from its automorphisms and
    bridges."""
    if m_cur == m:
        yield adj
        return
    live = _candidates(n, adj, sides)
    if not live:
        return
    reps = pair_orbit_reps(n, cres.generators, list(live))
    last = m_cur + 1 == m
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
            yield from _augment(n, child, ccres, child_sides, m_cur + 1, m)


def enumerate_connected(task) -> Iterator[Graph]:
    """Exactly one representative per isomorphism class of connected graphs
    with the task's order and size, whatever its cyclomatic number; none
    when no such graph exists."""
    n, m = task.n, task.m
    if n < 1 or not n - 1 <= m <= n * (n - 1) // 2:
        return
    for seed, cres in trees(n):
        for adj in _augment(n, seed, cres, _bridge_sides(seed), n - 1, m):
            yield Graph(n, adj)
