import contextlib
import io
import random

import pytest
from hypothesis import given, settings, strategies as st

from mostar import (
    Graph,
    GraphError,
    Graph6Error,
    bfs_distances,
    cycle,
    is_connected,
    parse_graph6,
    path,
    write_graph6,
)
from mostar.cli import main
from mostar.graphs import with_pendants
from _helpers import (
    all_graphs, complete, cyclomatic_number, dot_product, floyd_warshall, random_connected,
    random_graph, reference_parse_graph6, reference_write_graph6, relabel, star,
)


def test_bfs_cycle():
    assert bfs_distances(cycle(4), 0) == [0, 1, 2, 1]


def test_bfs_star_center():
    assert bfs_distances(star(5), 0) == [0, 1, 1, 1, 1]


def test_bfs_path():
    assert bfs_distances(path(4), 0) == [0, 1, 2, 3]


def test_bfs_unreachable_sentinel_is_none():
    g = Graph.from_edges(3, [(0, 1)])
    assert bfs_distances(g, 0) == [0, 1, None]


def test_bfs_source_out_of_range():
    with pytest.raises(GraphError):
        bfs_distances(cycle(3), 5)


def test_connectivity():
    assert is_connected(cycle(5))
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert not is_connected(two_triangles)
    assert is_connected(Graph.from_edges(1, []))
    assert is_connected(Graph.from_edges(0, []))


def test_cyclomatic():
    assert cyclomatic_number(complete(4)) == 3
    assert cyclomatic_number(cycle(7)) == 1
    assert cyclomatic_number(random_tree_9()) == 0
    with pytest.raises(GraphError):
        cyclomatic_number(Graph.from_edges(4, [(0, 1), (2, 3)]))


def random_tree_9():
    rng = random.Random(5)
    edges = [tuple(sorted((v, rng.randrange(v)))) for v in range(1, 9)]
    return Graph.from_edges(9, edges)


def test_dot_product_bowtie():
    g = dot_product(cycle(3), 0, cycle(3), 0)
    assert (g.n, g.m) == (5, 6)
    assert g.degree(0) == 4


def test_dot_product_star_cycle():
    # star center fused onto a triangle vertex: 6 edges on 6 vertices
    g = dot_product(star(4), 0, cycle(3), 0)
    assert (g.n, g.m) == (6, 6)


def test_dot_product_identity_with_k1():
    g = cycle(5)
    h = dot_product(g, 2, Graph.from_edges(1, []), 0)
    assert h == g


def test_dot_product_preserves_g1_labels():
    g1 = path(3)
    h = dot_product(g1, 2, cycle(3), 1)
    for u, v in g1.edges():
        assert h.has_edge(u, v)


def test_dot_product_range_checks():
    with pytest.raises(GraphError):
        dot_product(cycle(3), 7, cycle(3), 0)


@given(st.integers(0, 10**6))
def test_dot_product_size_additive(seed):
    rng = random.Random(seed)
    g1 = random_connected(rng, 2, 6)
    g2 = random_connected(rng, 2, 6)
    v1 = rng.randrange(g1.n)
    v2 = rng.randrange(g2.n)
    h = dot_product(g1, v1, g2, v2)
    assert h.m == g1.m + g2.m
    assert h.n == g1.n + g2.n - 1
    assert cyclomatic_number(h) == cyclomatic_number(g1) + cyclomatic_number(g2)


@given(st.integers(0, 10**6))
@settings(max_examples=60)
def test_bfs_agrees_with_floyd_warshall(seed):
    rng = random.Random(seed)
    g = random_connected(rng, 2, 10)
    fw = floyd_warshall(g)
    for s in range(g.n):
        assert bfs_distances(g, s) == [int(x) for x in fw[s]]


# -- graph6 -------------------------------------------------------------------


def test_graph6_k4_round_trip():
    g = complete(4)
    assert parse_graph6(write_graph6(g)) == g


def test_graph6_single_vertex():
    g = Graph.from_edges(1, [])
    assert parse_graph6(write_graph6(g)) == g


def test_graph6_header_tolerated():
    g = cycle(5)
    assert parse_graph6(">>graph6<<" + write_graph6(g)) == g


def test_graph6_all_n5_round_trip_bit_exact():
    for g in all_graphs(5):
        line = write_graph6(g)
        back = parse_graph6(line)
        assert back.adj == g.adj
        assert write_graph6(back) == line


def test_graph6_known_encoding():
    # hand-packed: C5 upper-triangle bits 1010011001 -> 101001|100100 -> "Dhc"
    assert write_graph6(cycle(5)) == "Dhc"
    # the format documentation's worked example: n=5, edges 0-2, 0-4, 1-3, 3-4
    g = Graph.from_edges(5, [(0, 2), (0, 4), (1, 3), (3, 4)])
    assert write_graph6(g) == "DQc"


def test_graph6_large_order_three_byte_form():
    g = Graph.from_edges(100, [])
    line = write_graph6(g)
    assert line.startswith("~")
    assert parse_graph6(line).n == 100


def test_graph6_errors_carry_offset():
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("D" + chr(30))
    assert exc.value.offset == 1
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error):
        parse_graph6("I???")  # truncated adjacency for n=10
    for text, offset, message in (
        ("~~??????", 0, "order > 258047"),
        ("~?", 2, "truncated extended order"),
        ("A__", 2, "trailing data"),
    ):
        with pytest.raises(Graph6Error, match=message) as exc:
            parse_graph6(text)
        assert exc.value.offset == offset, text


@pytest.mark.parametrize("text,offset", [("D\u00e9{", 1), ("\u00ff", 0),
                                         (">>graph6<<C\udcff", 1)])
def test_graph6_non_ascii_rejected(text, offset):
    """A non-ASCII character is an error at its own offset, never a
    replacement byte that happens to be valid graph6."""
    with pytest.raises(Graph6Error) as exc:
        parse_graph6(text)
    assert exc.value.offset == offset
    assert "non-ASCII" in str(exc.value)


@given(st.integers(0, 10**6))
@settings(max_examples=80)
def test_graph6_round_trip_random(seed):
    rng = random.Random(seed)
    g = random_connected(rng, 1, 12)
    assert parse_graph6(write_graph6(g)) == g


def test_graph6_codec_matches_reference():
    """Both directions against the pair-by-pair reference codec, at every
    order 0..70 (62, 63 and 64 straddle the switch to the four-byte
    order field) and densities from empty to complete.  Padding bits after
    the last pair are ignored whatever their value."""
    rng = random.Random(6)
    for n in range(71):
        for g in (Graph.from_edges(n, []), complete(n),
                  random_graph(rng, n, n), random_graph(rng, n, n)):
            line = write_graph6(g)
            assert line == reference_write_graph6(g), line
            assert parse_graph6(line) == reference_parse_graph6(line) == g, line
            pad = -(n * (n - 1) // 2) % 6
            if pad:
                last = (ord(line[-1]) - 63) | rng.randint(1, (1 << pad) - 1)
                noisy = line[:-1] + chr(last + 63)
                assert parse_graph6(noisy) == reference_parse_graph6(noisy) == g, noisy


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except Graph6Error as exc:
        return str(exc), exc.offset


def test_graph6_errors_match_reference():
    """Lines cut short, extended or with one byte replaced by one outside
    63..126 get the reference parser's graph, or its message and offset."""
    rng = random.Random(7)
    for _ in range(400):
        n = rng.choice([0, 1, 2, 5, 11, 62, 63, 64, 70])
        line = write_graph6(random_graph(rng, n, n))
        k = rng.randrange(len(line) + 1)
        kind = rng.randrange(3)
        if kind == 0:
            text = line[:k]
        elif kind == 1:
            text = line + "".join(chr(rng.randint(63, 126)) for _ in range(rng.randint(1, 3)))
        else:
            bad = chr(rng.choice([*range(33, 63), 127]))
            text = line[:k] + bad + line[k + 1:]
        assert _parse_outcome(parse_graph6, text) == _parse_outcome(reference_parse_graph6, text), text


_G6_CHARS = st.characters(min_codepoint=63, max_codepoint=126)


def _g6_sized(n):
    """An order byte for n vertices and as many graph6 bytes as its pairs need."""
    size = (n * (n - 1) // 2 + 5) // 6
    return st.text(_G6_CHARS, min_size=size, max_size=size).map(lambda t: chr(63 + n) + t)


# any text; text in the graph6 range 63..126, bare or behind the header;
# and lines of the right length for 0..8 vertices, so that a fair share
# of the lines parse
_GRAPH6_LINES = st.one_of(
    st.text(max_size=16),
    st.tuples(st.sampled_from(["", ">>graph6<<"]), st.text(_G6_CHARS, max_size=16)).map("".join),
    st.integers(0, 8).flatmap(_g6_sized))


def test_compute_reads_any_text(tmp_path):
    """Every line of any text parses to the graph the reference parser
    reads, or raises `Graph6Error` with the reference's message and
    offset; and the `compute` command on a file of such text returns, with
    no traceback, 2 when no line holds more than whitespace, 3 when a line
    is skipped (it does not parse, or its graph is disconnected) and 0
    otherwise, with one error line per skipped line and one row per
    computed one."""
    g6_file = tmp_path / "in.g6"

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.lists(_GRAPH6_LINES, max_size=5))
    def check(lines):
        text, read, skipped = "\n".join(lines), 0, 0
        for line in text.splitlines():
            if line.strip():
                got = _parse_outcome(parse_graph6, line)
                assert got == _parse_outcome(reference_parse_graph6, line), line
                read += 1
                skipped += not isinstance(got, Graph) or not is_connected(got)
        g6_file.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["compute", "--format", "csv", str(g6_file)])
        assert rc == (3 if skipped else 0 if read else 2), lines
        assert len(err.getvalue().splitlines()) == (skipped if read else 1), lines
        assert len(out.getvalue().splitlines()) == (1 + read - skipped if read else 0), lines

    check()


def test_relabel_rejects_non_permutation():
    for perm in ([0, 0, 1], [0, 1], [1, 2, 3]):
        with pytest.raises(GraphError, match="not a permutation"):
            relabel(cycle(3), perm)


def test_public_names_resolve():
    import mostar

    assert len(mostar.__all__) == len(set(mostar.__all__))
    for name in mostar.__all__:
        assert getattr(mostar, name) is not None, name


def test_span_targets_resolve():
    """Every function the benchmark's call spans wrap by attribute name,
    `perfbench/spans.py`'s TARGETS as "layer.name", is a callable of
    `mostar.<layer>`; a refactor that drops or renames one fails here."""
    import importlib
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for target in spans.TARGETS:
        layer, name = target.split(".")
        assert callable(getattr(importlib.import_module(f"mostar.{layer}"), name, None)), target


def test_graph_invariants_enforced():
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        Graph.from_edges(2, [(0, 5)])


def _one_by_one(g, counts):
    """One pendant per `with_pendants` call, vertices in increasing order."""
    for v in sorted(counts):
        for _ in range(counts[v]):
            g = with_pendants(g, {v: 1})
    return g


@pytest.mark.parametrize("counts", [
    {}, {0: 1}, {2: 3}, {0: 2, 3: 1}, {3: 1, 1: 2, 0: 0, 2: 4},
])
def test_with_pendants_equals_add_pendant_calls(counts):
    g = cycle(4)
    assert with_pendants(g, counts) == _one_by_one(g, counts)


def test_with_pendants_labels():
    """New vertices are numbered from n on, vertex by vertex in increasing
    order, whatever order the counts come in."""
    want = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (0, 3), (0, 4), (2, 5)])
    assert with_pendants(cycle(3), {2: 1, 0: 2}) == want
    assert _one_by_one(cycle(3), {0: 2, 2: 1}) == want


def test_with_pendants_errors():
    with pytest.raises(GraphError, match="negative pendant count -1 at vertex 0"):
        with_pendants(cycle(3), {0: -1})
    with pytest.raises(GraphError, match="out of range"):
        with_pendants(cycle(3), {3: 1})
    with pytest.raises(GraphError, match="out of range"):
        with_pendants(cycle(3), {-1: 1})
