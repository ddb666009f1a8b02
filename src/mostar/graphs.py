"""Immutable simple-graph representation on vertex set {0..n-1}.

Adjacency is stored as one bitmask per vertex, which keeps edge tests,
BFS frontiers and neighbourhood scans cheap at the sizes this library
works with.  An edge is a plain (u, v) pair with u < v.  Graphs are
immutable values, so instances can be shared freely across worker
processes.
"""

from __future__ import annotations

from binascii import a2b_base64, b2a_base64
from typing import Iterable, Iterator, Mapping, Optional


class GraphError(ValueError):
    """Invalid graph construction or operation."""


def _bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def edge_pairs(adj: tuple[int, ...]) -> list[tuple[int, int]]:
    """The edges of adjacency rows `adj` as plain (u, v) pairs, u < v, in
    increasing order."""
    out = []
    for u, row in enumerate(adj):
        row >>= u + 1
        while row:
            low = row & -row
            out.append((u, u + low.bit_length()))
            row ^= low
    return out


class Graph:
    """Undirected simple graph with contiguous integer vertex labels."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: tuple[int, ...]):
        self.n = n
        self.adj = adj

    # -- construction ---------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj = [0] * n
        for a, b in edges:
            if not (0 <= a < n and 0 <= b < n):
                raise GraphError(f"edge ({a},{b}) out of range for n={n}")
            if a == b:
                raise GraphError(f"self-loop at vertex {a}")
            if adj[a] >> b & 1:
                raise GraphError(f"parallel edge ({a},{b})")
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        return cls(n, tuple(adj))

    # -- basic queries ---------------------------------------------------

    @property
    def m(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, a: int, b: int) -> bool:
        return bool(self.adj[a] >> b & 1)

    def edges(self) -> list[tuple[int, int]]:
        return edge_pairs(self.adj)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


# -- named constructors ----------------------------------------------------


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    if n < 1:
        raise GraphError("path needs at least 1 vertex")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def with_pendants(g: Graph, counts: Mapping[int, int]) -> Graph:
    """g with counts[v] new degree-1 vertices attached at each vertex v.

    The new vertices are numbered from g.n on: the pendants of the
    smallest v first, then those of the next v, and so on.
    """
    adj = list(g.adj)
    for v in sorted(counts):
        if not 0 <= v < g.n:
            raise GraphError(f"vertex {v} out of range")
        if counts[v] < 0:
            raise GraphError(f"negative pendant count {counts[v]} at vertex {v}")
        for _ in range(counts[v]):
            adj[v] |= 1 << len(adj)
            adj.append(1 << v)
    return Graph(len(adj), tuple(adj))


# -- distances and connectivity --------------------------------------------


def bfs_distances(g: Graph, source: int) -> list[Optional[int]]:
    """Hop distances from source; None marks unreachable vertices.

    None is deliberate as the unreachable sentinel: arithmetic on it fails
    loudly instead of silently producing a huge bogus distance.
    """
    if not 0 <= source < g.n:
        raise GraphError(f"source {source} out of range")
    dist: list[Optional[int]] = [None] * g.n
    dist[source] = 0
    adj = g.adj
    seen = frontier = 1 << source
    d = 0
    while frontier:
        nxt = 0
        for v in _bits(frontier):
            nxt |= adj[v]
        nxt &= ~seen
        d += 1
        for v in _bits(nxt):
            dist[v] = d
        seen |= nxt
        frontier = nxt
    return dist


def all_pairs_distances(g: Graph) -> list[list[Optional[int]]]:
    """One BFS per vertex; row i is bfs_distances(g, i)."""
    return [bfs_distances(g, s) for s in range(g.n)]


def is_connected(g: Graph) -> bool:
    """True when one BFS from vertex 0 reaches everything (n=0: True)."""
    return g.n == 0 or None not in bfs_distances(g, 0)


# -- graph6 format ----------------------------------------------------------


class Graph6Error(ValueError):
    """Malformed graph6 input; `offset` is the failing byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


# graph6 packs the bits in 6-bit groups, each stored as byte 63 + value, the
# same grouping as base64, so binascii converts between the groups and one
# integer in C once the alphabets are swapped; 4 groups make 3 bytes.
_G6 = bytes(range(63, 127))
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_G6_TO_B64 = bytes.maketrans(_G6, _B64)
_B64_TO_G6 = bytes.maketrans(_B64, _G6)


def write_graph6(g: Graph) -> str:
    """Standard graph6 line (no trailing newline, no >>graph6<< header).
    Bit k of the body, first bit first, is the pair (i, j) with
    k = j(j - 1)/2 + i, i < j; one bit is set per edge."""
    n = g.n
    if n > 258047:
        raise GraphError("graph6 supports at most 258047 vertices here")
    if n <= 62:
        head = bytes([n + 63])
    else:
        head = bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    groups = (n * (n - 1) // 2 + 5) // 6
    pad = -groups % 4
    bits = bytearray(b"0" * (6 * (groups + pad)))
    for i, j in edge_pairs(g.adj):
        bits[j * (j - 1) // 2 + i] = 49  # "1"
    raw = int(bits or b"0", 2).to_bytes(3 * (groups + pad) // 4, "big")
    body = b2a_base64(raw, newline=False)[:groups].translate(_B64_TO_G6)
    return (head + body).decode("ascii")


def parse_graph6(text: str) -> Graph:
    """Parse one graph6 line (optional >>graph6<< header tolerated).
    Padding bits after the last pair are ignored."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6Error(f"non-ASCII character {s[exc.start]!r}", exc.start) from None
    if not data:
        raise Graph6Error("empty graph6 string", 0)
    if min(data) < 63 or max(data) > 126:
        for off, byte in enumerate(data):
            if not 63 <= byte <= 126:
                raise Graph6Error(f"byte {byte} outside graph6 range 63..126", off)
    pos = 0
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise Graph6Error("graphs of order > 258047 unsupported", 0)
        if len(data) < 4:
            raise Graph6Error("truncated extended order field", len(data))
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        pos = 4
    else:
        n = data[0] - 63
        pos = 1
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos < nbytes:
        raise Graph6Error(
            f"truncated adjacency data: need {nbytes} bytes, have {len(data) - pos}",
            len(data),
        )
    if len(data) - pos > nbytes:
        raise Graph6Error("trailing data after adjacency bits", pos + nbytes)
    body = data[pos:]
    pad = -nbytes % 4
    x = int.from_bytes(a2b_base64(body.translate(_G6_TO_B64) + b"A" * pad), "big")
    bits = f"{x >> 6 * pad:0{6 * nbytes}b}"
    adj = [0] * n
    j = start = 0  # the pairs (0, j) .. (j - 1, j) are bits start .. start + j - 1
    k = bits.find("1", 0, nbits)
    while k >= 0:
        while k >= start + j:
            start += j
            j += 1
        i = k - start
        adj[i] |= 1 << j
        adj[j] |= 1 << i
        k = bits.find("1", k + 1, nbits)
    return Graph(n, tuple(adj))
