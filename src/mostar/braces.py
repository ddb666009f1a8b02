"""Brace extraction and tricyclic skeleton classification.

The brace of a graph is what remains after repeatedly deleting degree-1
vertices; it has minimum degree >= 2 and carries all of the cycle
structure.  Suppressing its degree-2 vertices yields a small multigraph
(the skeleton) whose shape classifies every connected tricyclic graph
into exactly one of five buckets:

  K4_SUBDIVISION   4 branch vertices, six paths in the K4 pattern
  THREE_HUB        3 branch vertices, five paths (two doubled pairs
                   sharing a vertex plus one single path)
  FOUR_THETA       2 branch vertices joined by four parallel paths
  DIGON_RING       4 branch vertices, two doubled pairs linked into a
                   ring by two single paths
  COMPOSITE        the brace has a cut vertex (it splits into a bicyclic
                   part and a unicyclic part at that vertex)

Path parameters are the sorted internal path lengths between branch
vertices, which is the granularity the extremal case analysis needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, GraphError, cyclomatic_number, is_connected, reachable_mask

K4_SUBDIVISION = "K4_SUBDIVISION"
THREE_HUB = "THREE_HUB"
FOUR_THETA = "FOUR_THETA"
DIGON_RING = "DIGON_RING"
COMPOSITE = "COMPOSITE"
NOT_TRICYCLIC = "NOT_TRICYCLIC"


@dataclass(frozen=True)
class BraceDecomposition:
    brace: Graph
    pendant_count: int
    # brace vertex -> number of pendant-tree edges hanging there
    attachment_profile: dict[int, int]
    # brace vertex -> original vertex label
    original_labels: tuple[int, ...]


@dataclass(frozen=True)
class Skeleton:
    branch_vertices: tuple[int, ...]
    # (a, b, length) with a <= b; loops appear as (v, v, cycle_length)
    paths: tuple[tuple[int, int, int], ...]

    @property
    def path_lengths(self) -> tuple[int, ...]:
        return tuple(sorted(p[2] for p in self.paths))


@dataclass(frozen=True)
class BraceClass:
    kind: str
    path_parameters: tuple[int, ...] | None = None


def strip_pendants(g: Graph) -> BraceDecomposition:
    """Iteratively delete degree-1 vertices; record where the trees hung.

    Raises for trees (their brace would be empty).
    """
    if not is_connected(g):
        raise GraphError("brace extraction requires a connected graph")
    if cyclomatic_number(g) < 1:
        raise GraphError("a tree has no brace")
    adj = g.adj
    alive = (1 << g.n) - 1
    changed = True
    while changed:
        changed = False
        for v in range(g.n):
            if alive >> v & 1 and (adj[v] & alive).bit_count() == 1:
                alive &= ~(1 << v)
                changed = True
    keep = [v for v in range(g.n) if alive >> v & 1]
    brace = g.induced(keep)
    # each stripped component is a tree hanging at exactly one brace vertex;
    # its edge count equals its vertex count
    profile = {i: 0 for i in range(len(keep))}
    dead_adj = tuple(row & ~alive for row in adj)
    seen = alive
    for v in range(g.n):
        if seen >> v & 1:
            continue
        comp = reachable_mask(dead_adj, v)
        anchor = next(i for i, x in enumerate(keep) if adj[x] & comp)
        profile[anchor] += comp.bit_count()
        seen |= comp
    return BraceDecomposition(
        brace=brace,
        pendant_count=g.m - brace.m,
        attachment_profile=profile,
        original_labels=tuple(keep),
    )


def skeleton(brace: Graph) -> Skeleton:
    """Suppress degree-2 vertices of a min-degree-2 graph.

    Walks every path between branch vertices (degree >= 3); a cycle
    attached at a single branch vertex becomes a loop.  A bare cycle (no
    branch vertices) reports no branch vertices and a single loop.
    """
    if any(brace.degree(v) < 2 for v in range(brace.n)):
        raise GraphError("skeleton requires minimum degree 2")
    branch = [v for v in range(brace.n) if brace.degree(v) >= 3]
    if not branch:
        if not is_connected(brace):
            raise GraphError("skeleton requires a connected graph")
        return Skeleton((), ((0, 0, brace.m),) if brace.n else ())
    paths = []
    # walk from each branch vertex along each incident edge; dedup by the
    # full walk's edge set so parallel paths and loops both survive
    seen_walks = set()
    for s in branch:
        for t0 in brace.neighbors(s):
            walk_edges = frozenset()
            prev, cur = s, t0
            walk = [(min(prev, cur), max(prev, cur))]
            while brace.degree(cur) == 2:
                nxts = [w for w in brace.neighbors(cur) if w != prev]
                prev, cur = cur, nxts[0]
                walk.append((min(prev, cur), max(prev, cur)))
            walk_edges = frozenset(walk)
            if walk_edges in seen_walks:
                continue
            seen_walks.add(walk_edges)
            a, b = (s, cur) if s <= cur else (cur, s)
            paths.append((a, b, len(walk)))
    return Skeleton(tuple(branch), tuple(sorted(paths)))


def _cut_vertices(g: Graph) -> list[int]:
    """Vertices whose removal disconnects their neighbours from each other."""
    out = []
    for v in range(g.n):
        nbrs = g.adj[v]
        if nbrs & (nbrs - 1):  # two or more neighbours
            bit = 1 << v
            rest = tuple(row & ~bit for row in g.adj)
            if nbrs & ~reachable_mask(rest, (nbrs & -nbrs).bit_length() - 1):
                out.append(v)
    return out


def classify(g: Graph) -> BraceClass:
    """Total classification of a connected graph's tricyclic structure."""
    if not is_connected(g):
        raise GraphError("classification requires a connected graph")
    if cyclomatic_number(g) != 3:
        return BraceClass(NOT_TRICYCLIC)
    brace = strip_pendants(g).brace
    if _cut_vertices(brace):
        return BraceClass(COMPOSITE)
    sk = skeleton(brace)
    params = sk.path_lengths
    b = len(sk.branch_vertices)
    if b == 2:
        return BraceClass(FOUR_THETA, params)
    if b == 3:
        return BraceClass(THREE_HUB, params)
    if b == 4:
        # distinguish the two 3-regular shapes by parallel-path pattern:
        # K4 has six distinct vertex pairs, the ring shape has two doubled
        multiplicity = {}
        for a, c, _ in sk.paths:
            multiplicity[(a, c)] = multiplicity.get((a, c), 0) + 1
        mults = sorted(multiplicity.values())
        if mults == [1, 1, 1, 1, 1, 1]:
            return BraceClass(K4_SUBDIVISION, params)
        if mults == [1, 1, 2, 2]:
            return BraceClass(DIGON_RING, params)
    raise GraphError("unrecognized 2-connected tricyclic skeleton")
