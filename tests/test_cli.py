import contextlib
import csv
import dataclasses
import io
import json
import re
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from mostar import cycle, write_graph6
from mostar import verify
from mostar.cli import _parse_sizes, build_parser, main
from mostar.enumeration import survey
from mostar.families import FamilyRegistry, FamilySpec, builtin_registry

REGISTRY = Path(__file__).resolve().parents[1] / "families.json"


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_compute_json(tmp_path, capsys):
    f = tmp_path / "in.g6"
    f.write_text(write_graph6(cycle(6)) + "\n" + write_graph6(builtin_registry()["A0"].build(12)) + "\n")
    rc, out, err = run(capsys, ["compute", str(f)])
    assert rc == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows[0]["edge_mostar"] == 0
    assert rows[1]["edge_mostar"] == 96
    assert all(
        r["mu"] + r["mv"] + r["eq"] + 1 == len(rows[1]["edges"])
        for r in rows[1]["edges"]
    )


def test_compute_s104(capsys, tmp_path):
    f = tmp_path / "in.g6"
    f.write_text(write_graph6(builtin_registry()["S_M4"].build(10)) + "\n")
    rc, out, _ = run(capsys, ["compute", str(f), "--format", "csv"])
    assert rc == 0
    assert out.splitlines()[1].endswith(",78")


def test_compute_partial_failures(tmp_path, capsys):
    f = tmp_path / "in.g6"
    f.write_text("!!notgraph6\n" + write_graph6(cycle(4)) + "\nB?\n")  # B? = 2 isolated vertices
    rc, out, err = run(capsys, ["compute", str(f)])
    assert rc == 3
    assert ":1: parse error" in err
    assert ":3: disconnected" in err
    assert len(out.splitlines()) == 1


MIXED_INPUT = ["Dl_", "!!notgraph6", "C~", "B?", "EgCG", "@", "Cs"]
MIXED_JSON = [
    '{"edge_mostar": 8, "edges": [{"eq": 1, "mu": 2, "mv": 1, "psi": 1, "u": 0, "v": 1}, '
    '{"eq": 1, "mu": 2, "mv": 1, "psi": 1, "u": 0, "v": 3}, '
    '{"eq": 0, "mu": 4, "mv": 0, "psi": 4, "u": 0, "v": 4}, '
    '{"eq": 1, "mu": 2, "mv": 1, "psi": 1, "u": 1, "v": 2}, '
    '{"eq": 1, "mu": 1, "mv": 2, "psi": 1, "u": 2, "v": 3}], "graph6": "Dl_"}',
    '{"edge_mostar": 0, "edges": [{"eq": 1, "mu": 2, "mv": 2, "psi": 0, "u": 0, "v": 1}, '
    '{"eq": 1, "mu": 2, "mv": 2, "psi": 0, "u": 0, "v": 2}, '
    '{"eq": 1, "mu": 2, "mv": 2, "psi": 0, "u": 0, "v": 3}, '
    '{"eq": 1, "mu": 2, "mv": 2, "psi": 0, "u": 1, "v": 2}, '
    '{"eq": 1, "mu": 2, "mv": 2, "psi": 0, "u": 1, "v": 3}, '
    '{"eq": 1, "mu": 2, "mv": 2, "psi": 0, "u": 2, "v": 3}], "graph6": "C~"}',
    '{"edge_mostar": 0, "edges": [], "graph6": "@"}',
    '{"edge_mostar": 6, "edges": [{"eq": 0, "mu": 2, "mv": 0, "psi": 2, "u": 0, "v": 1}, '
    '{"eq": 0, "mu": 2, "mv": 0, "psi": 2, "u": 0, "v": 2}, '
    '{"eq": 0, "mu": 2, "mv": 0, "psi": 2, "u": 0, "v": 3}], "graph6": "Cs"}',
]
MIXED_CSV = ["graph6,n,m,edge_mostar", "Dl_,5,5,8", "C~,4,6,0", "@,1,0,0", "Cs,4,3,6"]


@pytest.mark.parametrize("fmt,expected", [("json", MIXED_JSON), ("csv", MIXED_CSV)])
def test_compute_mixed_input_outputs(tmp_path, capsys, fmt, expected):
    """Good, unparseable and disconnected lines: the outputs and messages
    are byte-identical to those of the distance-table implementation."""
    f = tmp_path / "in.g6"
    f.write_text("\n".join(MIXED_INPUT) + "\n")
    rc, out, err = run(capsys, ["compute", str(f), "--format", fmt])
    assert rc == 3
    newline = "\r\n" if fmt == "csv" else "\n"
    assert out == "".join(line + newline for line in expected)
    assert err.splitlines() == [
        f"{f}:2: parse error: byte 33 outside graph6 range 63..126 (byte offset 0)",
        f"{f}:4: disconnected graph skipped",
        f"{f}:5: disconnected graph skipped",
    ]


# a UTF-8 non-ASCII character, and a byte that is not UTF-8 at all
@pytest.mark.parametrize("bad", [b"\xc3\xbf", b"\xff"], ids=["utf8", "not-utf8"])
@pytest.mark.parametrize("source", ["stdin", "file"])
def test_compute_non_ascii_line(tmp_path, capsys, monkeypatch, source, bad):
    """Reported as a parse error of its own line, the same way on stdin and
    in files; the good lines around it are still computed."""
    data = b"C~\n" + bad + b"\nCs\n"
    if source == "stdin":
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        argv, src = ["compute", "--format", "csv"], "<stdin>"
    else:
        f = tmp_path / "in.g6"
        f.write_bytes(data)
        argv, src = ["compute", str(f), "--format", "csv"], str(f)
    rc, out, err = run(capsys, argv)
    assert rc == 3
    assert err.startswith(f"{src}:2: parse error: non-ASCII character")
    assert len(err.splitlines()) == 1
    assert out.splitlines() == ["graph6,n,m,edge_mostar", "C~,4,6,0", "Cs,4,3,6"]


# the H1 base: two hubs joined by paths of lengths 1, 2, 2, 2 (7 edges)
H1_EDGES = [[0, 1], [0, 2], [2, 1], [0, 3], [3, 1], [0, 4], [4, 1]]


def _entry(copies=1, **changes):
    entry = {"id": "H1", "base_edges": H1_EDGES, "attach": 0, "m_min": 7,
             "poly": [1, -4, -9], "provenance": "ANALYTIC"}
    entry.update(changes)
    return json.dumps([entry] * copies) + "\n"


@pytest.mark.parametrize("command", ["verify-theorem1", "verify-theorem2"])
@pytest.mark.parametrize("content,reason", [
    ("not json\n", "JSONDecodeError"),
    ('[{"id": "A0"}]\n', "KeyError"),
    ('[{"id": "A0", "base_edges": [], "attach": 0, "m_min": 12, "poly": null,'
     ' "provenance": "ANALYTIC"}]\n', "ValueError"),
    (_entry(attach=99), "ValueError: family H1: attach 99 outside base vertices 0..4"),
    (_entry(base_edges=H1_EDGES + [[1, 0]]), "ValueError: family H1: parallel edge"),
    (_entry(base_edges=H1_EDGES + [[2, 2]]), "ValueError: family H1: self-loop"),
    (_entry(base_edges=H1_EDGES + [[5, 6]]),
     "ValueError: family H1: base edges are not connected"),
    (_entry(m_min=3), "ValueError: family H1: m_min 3 below its 7 base edges"),
    (_entry(copies=2), "ValueError: duplicate family id H1"),
    (_entry(poly=[1, -4]), "ValueError: family H1: poly [1, -4] is not three integers"),
    (_entry(poly="abc"), "ValueError: family H1: poly 'abc' is not three integers"),
    (_entry(poly=[1, -4, -9.5]),
     "ValueError: family H1: poly [1, -4, -9.5] is not three integers"),
    (_entry(m_min=7.7), "ValueError: family H1: m_min 7.7 is not an integer"),
    (_entry(attach=True), "ValueError: family H1: attach True is not an integer"),
    (_entry(id=5), "ValueError: family id 5 is not a string"),
    (_entry(base_edges=H1_EDGES + [[1, 4.0]]),
     "ValueError: family H1: base edge [1, 4.0] is not two integers"),
    (_entry(provenance=5), "ValueError: family H1: provenance 5 is not a string"),
    (_entry(provenance=None), "ValueError: family H1: provenance None is not a string"),
    # rejected before the graph is built: 10^12 vertices would not fit in memory
    (_entry(base_edges=[[0, 10**12]] + H1_EDGES[1:]),
     f"ValueError: family H1: {10**12 + 1} base vertices cannot be connected by 7 base edges"),
    # deeper than the JSON decoder's recursion can go
    ("[" * 200_000 + "]" * 200_000 + "\n", "RecursionError"),
], ids=["not-json", "missing-keys", "no-base-edges", "attach-outside",
        "repeated-edge", "loop", "disconnected", "m-min-below-base", "duplicate-id",
        "poly-two-terms", "poly-string", "poly-float", "m-min-float", "attach-bool",
        "id-not-string", "endpoint-float", "provenance-int", "provenance-null",
        "endpoint-huge", "deep-nesting"])
def test_verify_bad_registry_file(tmp_path, capsys, monkeypatch, command, content,
                                  reason):
    """Rejected when the registry loads, before any enumeration starts."""
    def no_survey(*args, **kwargs):
        raise AssertionError("enumerated before the registry was checked")

    monkeypatch.setattr(verify, "survey", no_survey)
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    with pytest.raises(SystemExit) as exc:
        main([command, "--size", "7", "--threads", "1", "--registry", str(bad)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"registry {bad} is not a families registry: {reason}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("with_default", [True, False], ids=["registry-in-cwd", "empty-cwd"])
@pytest.mark.parametrize("command", ["verify-theorem1", "verify-theorem2"])
def test_verify_empty_registry_path(tmp_path, capsys, monkeypatch, command, with_default):
    """`--registry ''` is an error, not "no --registry": exit 2 before any
    survey, whether ./families.json exists or the built-in registry would
    stand in."""
    def no_survey(*args, **kwargs):
        raise AssertionError("enumerated before the registry was checked")

    monkeypatch.setattr(verify, "survey", no_survey)
    monkeypatch.chdir(tmp_path)
    if with_default:
        (tmp_path / "families.json").write_bytes(REGISTRY.read_bytes())
    argv = [command, "--size", "7", "--threads", "1", "--registry", ""]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "cannot read registry '': empty path" in err
    _assert_one_error_line(err, argv)


_ODD = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=4),
    st.integers(-3, 30), st.sampled_from([-1, -10**12, 10**12, 10**30, 10**400]),
    st.lists(st.integers(-2, 12), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 12), max_size=2),
)
_NEST = "\x00nest\x00"  # stands for a value that is wrapped in lists in the text


@st.composite
def _mutated_registry(draw):
    """The committed registry's text after one to three mutations: a value
    of another type, a removed or added key, a huge or negative int, an
    entry dropped or repeated, or a value wrapped in 1 to 100,000 lists
    (deeper than `json.loads` can read)."""
    entries = json.loads(REGISTRY.read_text())
    depth = 0
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(entries) - 1))
        entry = entries[i]
        keys = sorted(entry) if isinstance(entry, dict) else []
        kind = draw(st.sampled_from(["swap", "drop", "add", "int", "nest", "entry"]))
        if kind == "entry" or not keys:
            if draw(st.booleans()):
                del entries[i]
                if not entries:
                    break
            else:
                entries.insert(i, draw(st.one_of(st.just(entry), _ODD)))
            continue
        key = draw(st.sampled_from(keys))
        if kind == "swap":
            entry[key] = draw(_ODD)
        elif kind == "drop":
            del entry[key]
        elif kind == "add":
            entry[draw(st.text(max_size=6))] = draw(_ODD)
        elif kind == "int":  # the value itself, or one inside it: a coefficient, an endpoint
            value = draw(st.sampled_from([-1, -10**12, 10**12, 10**30, 10**400]))
            target = entry[key]
            if isinstance(target, list) and target:
                j = draw(st.integers(0, len(target) - 1))
                if isinstance(target[j], list) and target[j]:
                    target[j][draw(st.integers(0, len(target[j]) - 1))] = value
                else:
                    target[j] = value
            else:
                entry[key] = value
        elif not depth:
            depth = draw(st.sampled_from([1, 3, 100, 100_000]))
            entry[key], nested = _NEST, json.dumps(entry[key])
    text = json.dumps(entries)
    if depth:
        text = text.replace(json.dumps(_NEST), "[" * depth + nested + "]" * depth)
    return text


def test_mutated_registry_exits_cleanly(tmp_path, monkeypatch):
    """Any mutation of the committed registry, run through
    `verify-theorem1 --size 7 --registry F`, exits 0 or 1 with rows, or 2
    with one error line, and never shows a traceback.  The size-7 survey
    does not read the registry, so it is made once."""
    surveyed = {}
    real_survey = verify.survey

    def survey_once(tasks, workers):
        key = tuple(tasks)
        if key not in surveyed:
            surveyed[key] = real_survey(key, workers=workers)
        return surveyed[key]

    monkeypatch.setattr(verify, "survey", survey_once)
    path = tmp_path / "families.json"

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(_mutated_registry())
    @example(json.dumps([{"id": "a\nb", "base_edges": [], "attach": 0, "m_min": 7,
                          "poly": None, "provenance": "x"}]))
    def check(text):
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(["verify-theorem1", "--size", "7", "--threads", "1",
                           "--registry", str(path)])
            except SystemExit as exc:
                rc = exc.code
        assert rc in (0, 1, 2), text[:200]
        assert "Traceback" not in err.getvalue(), text[:200]
        if rc == 2:
            lines = err.getvalue().splitlines()
            assert [line for line in lines if "error: " in line] == lines[-1:], text[:200]
        else:
            assert [row["m"] for row in json.loads(out.getvalue())] == [7], text[:200]

    check()


@pytest.mark.parametrize("source", ["stdin", "file"])
@pytest.mark.parametrize("data", [b"", b"\n  \n\t\n"], ids=["empty", "blank"])
def test_compute_no_input(tmp_path, capsys, monkeypatch, source, data):
    """Input with no non-blank line is an input error, not a pass: exit 2
    with one message, and no output written, not even the CSV header."""
    out_path = tmp_path / "out.csv"
    argv = ["compute", "--format", "csv", "--output", str(out_path)]
    if source == "stdin":
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    else:
        f = tmp_path / "in.g6"
        f.write_bytes(data)
        argv.append(str(f))
    rc, out, err = run(capsys, argv)
    assert rc == 2
    assert err == "error: no graph6 input\n"
    assert out == "" and not out_path.exists()


def test_compute_missing_file(capsys):
    rc, _, err = run(capsys, ["compute", "/nonexistent/x.g6"])
    assert rc == 2
    assert "cannot read" in err


def test_compute_messages_are_one_line(tmp_path, capsys, monkeypatch):
    """compute's own messages quote the file name, which may hold a line
    break: a missing file, an unparsable line and a disconnected graph
    each give one line, with the break written as its escape."""
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(capsys, ["compute", "no\nsuch"])
    assert rc == 2 and out == ""
    assert err.startswith("error: cannot read no\\nsuch: ") and err.count("\n") == 1
    (tmp_path / "bad\nname").write_text("C~\n@@@\nCK\n")
    rc, out, err = run(capsys, ["compute", "bad\nname"])
    assert rc == 3 and out.count("\n") == 1
    assert err.splitlines() == [
        "bad\\nname:2: parse error: trailing data after adjacency bits (byte offset 1)",
        "bad\\nname:3: disconnected graph skipped",
    ]


def test_verify_theorem2_pass(tmp_path, capsys):
    out_file = tmp_path / "rows.json"
    rc, _, _ = run(capsys, [
        "verify-theorem2", "--range", "5-8", "--threads", "2",
        "--output", str(out_file),
    ])
    assert rc == 0
    rows = json.loads(out_file.read_text())
    assert [r["m"] for r in rows] == [5, 6, 7, 8]
    assert [r["observed_max"] for r in rows] == [4, 12, 22, 34]
    assert all(r["status"] == "PASS" for r in rows)


CSV_HEADER = ["m", "expected_max", "observed_max", "observed_maximizer_count",
              "status", "note"]


@pytest.mark.parametrize("command,sizes", [
    ("verify-theorem1", "6-9"),  # m = 6 is an INFO row with no expected maximum
    ("verify-theorem2", "5-8"),
])
def test_verify_csv_matches_json(capsys, command, sizes):
    """The CSV output has the documented header and one line per JSON row,
    with the same values (None as an empty field)."""
    out = {}
    for fmt in ("json", "csv"):
        rc, out[fmt], _ = run(capsys, [command, "--range", sizes, "--threads", "1",
                                       "--registry", str(REGISTRY), "--format", fmt])
        assert rc == 0
    header, *lines = csv.reader(io.StringIO(out["csv"], newline=""))
    assert header == CSV_HEADER
    rows = json.loads(out["json"])
    assert lines == [["" if r[k] is None else str(r[k]) for k in CSV_HEADER] for r in rows]
    lo, hi = map(int, sizes.split("-"))
    assert [r["m"] for r in rows] == list(range(lo, hi + 1))


def test_verify_theorem1_single_size(capsys):
    rc, out, _ = run(capsys, ["verify-theorem1", "--size", "7", "--threads", "1"])
    assert rc == 0
    rows = json.loads(out)
    assert rows[0]["observed_max"] == 12
    assert rows[0]["observed_maximizer_count"] == 2


def test_verify_theorem1_m6_informational(capsys):
    rc, out, _ = run(capsys, ["verify-theorem1", "--size", "6"])
    assert rc == 0
    rows = json.loads(out)
    assert rows[0]["status"] == "INFO"
    assert rows[0]["observed_max"] == 0


@pytest.mark.parametrize("command,sizes,supported", [
    ("verify-theorem1", ["--size", "5"], "6..22"),
    ("verify-theorem1", ["--size", "23"], "6..22"),
    ("verify-theorem1", ["--range", "22-23"], "6..22"),
    ("verify-theorem2", ["--size", "4"], "5..30"),
    ("verify-theorem2", ["--size", "31"], "5..30"),
    ("verify-theorem2", ["--range", "4-5"], "5..30"),
    ("verify-theorem2", ["--range", "5-99999999999999"], "5..30"),
])
def test_verify_size_outside_range(capsys, monkeypatch, command, sizes, supported):
    """Below the first size with a graph or past the class's top: exit 2
    before any enumeration, naming the supported range."""
    def no_survey(*args, **kwargs):
        raise AssertionError("enumerated an unsupported size")

    monkeypatch.setattr(verify, "survey", no_survey)
    with pytest.raises(SystemExit) as exc:
        main([command, *sizes, "--threads", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"outside supported range {supported}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["verify-theorem1", "verify-theorem2"])
def test_verify_deep_is_not_an_option(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--size", "7", "--deep"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --deep" in capsys.readouterr().err


@pytest.mark.parametrize("command,size,expected", [
    ("verify-theorem1", 13, 120), ("verify-theorem2", 30, 846),
])
def test_verify_past_the_table_without_flag(capsys, command, size, expected):
    rc, out, _ = run(capsys, [command, "--size", str(size), "--threads", "1",
                              "--registry", str(REGISTRY)])
    assert rc == 0
    (row,) = json.loads(out)
    assert (row["observed_max"], row["observed_maximizer_count"], row["status"]) == (
        expected, 1, "PASS")


@pytest.mark.parametrize("command,supported,default", [
    ("verify-theorem1", range(6, 23), range(7, 13)),
    ("verify-theorem2", range(5, 31), range(5, 11)),
])
def test_verify_sizes_match_the_enumerator(command, supported, default):
    """The accepted sizes run from the first at which the class has a graph
    through the class's top, and the default is the table's own range.
    Only the command line bounds the size: `EnumerationTask.validate`
    accepts the task past the top."""
    args = build_parser().parse_args([command])
    spec = args.spec
    assert spec.sizes == supported
    assert _parse_sizes(args) == list(default)
    lo, top = spec.task(supported[0]), spec.task(supported[-1])
    top.validate()
    spec.task(supported[-1] + 1).validate()
    below = spec.task(supported[0] - 1)
    got = survey([below, lo])
    assert (got[below].result.graphs_visited, got[lo].result.graphs_visited) == (0, 1)


def test_verify_member_of_another_order(tmp_path, capsys):
    """A family member of another order than the task's is no maximizer and
    is not labelled: B0 as one edge has 17 vertices at size 16, where the
    task has 15, and its hit is False."""
    reg = FamilyRegistry([FamilySpec("B0", ((0, 1),), 0, 1, None, "TEST")])
    path = tmp_path / "fam.json"
    reg.save(path)
    rc, out, err = run(capsys, ["verify-theorem2", "--size", "16", "--threads", "1",
                                "--registry", str(path)])
    assert rc == 1
    (row,) = json.loads(out)
    assert row["family_hits"] == {"B0": False} and row["status"] == "FAIL"
    assert row["observed_max"] == 16 * 16 - 16 - 24
    assert "Traceback" not in err


def test_verify_unpinned_family_passes_on_the_maximum(tmp_path, capsys):
    """A row whose expected family is not pinned at its size (A0 with an
    m_min of 10**30) still PASSes, with exit 0: the row checks the maximum
    over every class of the size, and the family's hit is null, meaning
    unchecked, with the note naming it."""
    reg = FamilyRegistry.load(REGISTRY)
    reg.add(dataclasses.replace(reg["A0"], m_min=10**30))
    path = tmp_path / "fam.json"
    reg.save(path)
    rc, out, err = run(capsys, ["verify-theorem1", "--size", "12", "--threads", "1",
                                "--registry", str(path)])
    assert rc == 0 and err == ""
    (row,) = json.loads(out)
    assert row["status"] == "PASS" and row["family_hits"] == {"A0": None}
    assert row["observed_max"] == row["expected_max"] == 12 * 12 - 12 - 36
    assert row["observed_maximizer_count"] == 1
    assert row["note"] == "not pinned at this size: ['A0']"


@pytest.mark.parametrize("command", ["verify-theorem1", "verify-theorem2"])
@pytest.mark.parametrize("text", ["7-x", "7", "a-b", "9-7"])
def test_verify_bad_range(capsys, command, text):
    with pytest.raises(SystemExit) as exc:
        main([command, "--range", text, "--threads", "1"])
    assert exc.value.code == 2
    assert "argument --range" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1", "x", "abc"])
@pytest.mark.parametrize("command,option", [
    ("verify-theorem1", "--threads"),
    ("verify-theorem2", "--threads"),
    ("atlas", "--threads"),
    ("lemmas", "--count"),
])
def test_nonpositive_count_rejected(tmp_path, capsys, command, option, value):
    """Non-positive and non-integer counts exit 2 with a message, no traceback."""
    # --output keeps a regression from overwriting the committed registry
    with pytest.raises(SystemExit) as exc:
        main([command, option, value, "--output", str(tmp_path / "out.json")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    reason = "must be at least 1" if value.lstrip("-").isdigit() else "not an integer"
    assert f"argument {option}: {reason}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("threads,cores,want", [("20000", 3, 3), ("2", 3, 2), ("5", None, 1)])
@pytest.mark.parametrize("argv,target", [
    (["verify-theorem1", "--size", "7"], "mostar.verify.survey"),
    (["verify-theorem2", "--size", "5"], "mostar.verify.survey"),
    (["atlas", "--max-size", "7"], "mostar.cli.run_atlas"),
], ids=["verify-theorem1", "verify-theorem2", "atlas"])
def test_threads_capped_at_core_count(tmp_path, capsys, monkeypatch, argv, target,
                                      threads, cores, want):
    """`--threads` asks for at most one worker per usable core; on a
    platform that reports no CPU affinity that is `os.cpu_count()`, 1 when
    unknown.  The stand-in records the count it is given and runs the real
    work on one worker, so no large pool ever starts."""
    module, name = target.rsplit(".", 1)
    real, seen = getattr(sys.modules[module], name), []

    def recording(*args, workers, **kwargs):
        seen.append(workers)
        return real(*args, workers=1, **kwargs)

    monkeypatch.setattr(target, recording)
    monkeypatch.delattr("os.sched_getaffinity", raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: cores)
    rc, _, _ = run(capsys, [*argv, "--threads", threads, "--output", str(tmp_path / "out.json")])
    assert rc in (0, 3)  # atlas at 7 leaves families unresolved
    assert seen == [want]


@pytest.mark.parametrize("affinity,threads,want", [
    ({0}, [], 1),
    ({0}, ["--threads", "4"], 1),
    ({0, 1, 2}, ["--threads", "2"], 2),
], ids=["default", "capped", "below"])
def test_threads_capped_at_usable_cores(tmp_path, capsys, monkeypatch, affinity, threads, want):
    """The cores counted are those the process may run on, its CPU affinity
    where the platform reports one, not the host's eight: one core of
    eight (`taskset -c 0`) gets one worker by default and at most one when
    asked for more."""
    real, seen = verify.survey, []

    def recording(*args, workers, **kwargs):
        seen.append(workers)
        return real(*args, workers=1, **kwargs)

    monkeypatch.setattr(verify, "survey", recording)
    monkeypatch.setattr("os.cpu_count", lambda: 8)
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(affinity), raising=False)
    rc, _, _ = run(capsys, ["verify-theorem1", "--size", "7", *threads,
                            "--output", str(tmp_path / "out.json")])
    assert rc == 0
    assert seen == [want]


def test_atlas_partial_on_small_range(tmp_path, capsys, atlas_report):
    """Exit 3 with the unresolved families named; the registry path, which
    may hold a line break, is quoted on one line.  A2 resolves from the
    size-9 list to its committed key; A1, listed only at size 11, does not.
    H3's note says its printed form holds only past the surveyed sizes."""
    reg_path = tmp_path / "fam\nily.json"
    rep_path = tmp_path / "rep.json"
    rc, _, err = run(capsys, [
        "atlas", "--max-size", "9", "--threads", "2",
        "--output", str(reg_path), "--report", str(rep_path),
    ])
    assert rc == 3  # A1 needs size 11, H4 never resolves
    assert err.splitlines()[0] == f"registry written to {tmp_path}/fam\\nily.json"
    assert len(err.splitlines()) == 2 and err.splitlines()[1].startswith("unresolved")
    report = json.loads(rep_path.read_text())
    assert "A1" in report["unresolved"]
    assert report["resolved"]["A2"]["key"] == atlas_report["resolved"]["A2"]["key"]
    assert next(n for n in report["notes"] if n.startswith("H3:")).startswith(
        "H3: the single-attach family on its brace's deg-2 orbit of 2 follows the printed "
        "closed form m^2-1m-48 only from m>=10, past the largest surveyed size 9; ")
    entries = {e["id"] for e in json.loads(reg_path.read_text())}
    assert {"F1", "H1", "A3", "B0", "B1", "B3"} <= entries


def test_atlas_report_to_stdout(tmp_path, capsys):
    """Without --report the report goes to stdout, byte for byte what
    --report writes; the registry is written either way."""
    argv = ["atlas", "--max-size", "7", "--threads", "1"]
    rc, out, _ = run(capsys, argv + ["--output", str(tmp_path / "a.json")])
    assert rc == 3 and "H4" in json.loads(out)["unresolved"]
    rep_path = tmp_path / "rep.json"
    rc, out_with_report, _ = run(capsys, argv + ["--output", str(tmp_path / "b.json"),
                                                 "--report", str(rep_path)])
    assert rc == 3 and out_with_report == ""
    assert out == rep_path.read_text()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_lemmas_report(tmp_path, capsys):
    out_file = tmp_path / "lemmas.json"
    rc, _, _ = run(capsys, [
        "lemmas", "--count", "3", "--seed", "7", "--output", str(out_file),
    ])
    report = json.loads(out_file.read_text())
    assert set(report["statuses"]) == set(report["loaded_statuses"])
    assert len(report["statuses"]) == 20
    # strict exit contract: 0 only when every rule matched or was skipped
    strict_ok = all(s in ("MATCH", "SKIPPED") for s in report["statuses"].values())
    assert rc == (0 if strict_ok else 1)
    for rule, status in report["statuses"].items():
        if status == "DISCREPANT":
            assert rule in report["interpolations"]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify-theorem1", "--format", "xml"])
    assert exc.value.code == 2


@pytest.mark.parametrize("value", ["0", "6", "23", "12345678901234567890"])
def test_atlas_max_size_out_of_range(tmp_path, capsys, value):
    """Rejected before any enumeration, and an existing registry stays as
    it was: the tricyclic table's first listed size 7 through the last size
    verify-theorem1 accepts, 22, are the limits."""
    reg_path = tmp_path / "fam.json"
    reg_path.write_text("[]\n")
    before = reg_path.read_bytes()
    with pytest.raises(SystemExit) as exc:
        main(["atlas", "--max-size", value, "--threads", "1",
              "--output", str(reg_path), "--report", str(tmp_path / "rep.json")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"--max-size {value} outside supported range 7..22" in err
    assert "Traceback" not in err
    assert reg_path.read_bytes() == before
    assert not (tmp_path / "rep.json").exists()


class _Surveyed(Exception):
    """Raised in place of a survey, with the sizes it was asked for."""


def _surveyed(tasks, workers=1):
    raise _Surveyed(sorted(task.m for task in tasks))


def _assert_one_error_line(err, argv):
    lines = err.splitlines()
    assert [line for line in lines if ": error: " in line] == lines[-1:], argv
    assert "Traceback" not in err, argv


_INTS = st.one_of(st.integers(-3, 40), st.integers(-10**20, 10**20))
_SIZE_TEXT = st.one_of(_INTS.map(str), st.text(max_size=6))
_RANGE_TEXT = st.one_of(st.tuples(_INTS, _INTS).map("{0[0]}-{0[1]}".format),
                        st.text(max_size=8))


def _ends(name, text):
    """The first and last size a plain ASCII decimal argument names; None
    for any other text, which must exit 2 even where Python's int would
    read it (" 7", "1_0", "+7", "٧")."""
    pattern = r"([0-9]+)-([0-9]+)" if name == "--range" else r"(-?[0-9]+)"
    match = re.fullmatch(pattern, text)
    if match is None:
        return None
    return int(match.group(1)), int(match.group(match.lastindex))


@pytest.mark.parametrize("command", ["verify-theorem1", "verify-theorem2", "atlas"])
def test_size_arguments_reach_the_survey_only_in_range(monkeypatch, tmp_path, command):
    """Every --size, --range or --max-size string either reaches the survey,
    asking for sizes whose ends lie in the class's `sizes` (`atlas_tops` for
    atlas), or exits 2 with one error line and no traceback."""
    monkeypatch.setattr(verify, "survey", _surveyed)
    if command == "atlas":
        allowed = verify.TRICYCLIC.atlas_tops
        flags = st.tuples(st.just("--max-size"), _SIZE_TEXT)
        rest = ["--output", str(tmp_path / "fam.json"), "--report", str(tmp_path / "rep.json")]
    else:
        allowed = build_parser().parse_args([command]).spec.sizes
        flags = st.one_of(st.tuples(st.just("--size"), _SIZE_TEXT),
                          st.tuples(st.just("--range"), _RANGE_TEXT))
        rest = ["--registry", str(REGISTRY)]

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(flags)
    def check(flag):
        ends = _ends(*flag)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                main([command, *flag, "--threads", "1", *rest])
            except _Surveyed as reached:
                (sizes,) = reached.args
            except SystemExit as exc:
                sizes = None
                assert exc.code == 2, flag
            else:
                pytest.fail(f"{flag} neither surveyed nor exited")
        if sizes is None:
            _assert_one_error_line(err.getvalue(), flag)
            assert ends is None or not (ends[0] <= ends[1] and ends[0] in allowed
                                        and ends[1] in allowed), flag
            return
        assert ends is not None, flag
        # atlas surveys tricyclic 7..top beside bicyclic sizes up to min(top, 10)
        got = (sizes[-1], sizes[-1]) if command == "atlas" else (sizes[0], sizes[-1])
        assert got[0] in allowed and got[1] in allowed, flag
        assert ends == got, flag
        if command != "atlas":
            assert sizes == list(range(got[0], got[1] + 1)), flag

    check()


@pytest.mark.parametrize("argv", [
    ["verify-theorem1", "--size", "+7"],
    ["verify-theorem1", "--size", "1_0"],
    ["verify-theorem2", "--size", "\u0667"],
    ["verify-theorem1", "--range", "\u0667-\u0668"],
    ["atlas", "--max-size", "+12"],
], ids=["plus", "underscore", "arabic-indic", "arabic-indic-range", "plus-max-size"])
def test_sizes_are_ascii_decimal(monkeypatch, tmp_path, capsys, argv):
    """Sizes `int` would read but that are not plain ASCII decimal exit 2
    with one error line, before any survey."""
    monkeypatch.setattr(verify, "survey", _surveyed)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--threads", "1", "--output", str(tmp_path / "out.json")])
    assert exc.value.code == 2
    _assert_one_error_line(capsys.readouterr().err, argv)


@pytest.mark.parametrize("seed", ["+7", "1_0", " 7", "\u0667"],
                         ids=["plus", "underscore", "space", "arabic-indic"])
def test_lemma_seed_is_ascii_decimal(monkeypatch, tmp_path, capsys, seed):
    """`lemmas --seed` reads by the sizes' rule: a seed `int` would read
    but that is not plain ASCII decimal exits 2 with one error line, before
    any sampling; every other argument is valid."""
    monkeypatch.setattr("mostar.cli.run_shift_suite", _surveyed)
    with pytest.raises(SystemExit) as exc:
        main(["lemmas", "--count", "1", "--seed", seed, "--output", str(tmp_path / "out.json")])
    assert exc.value.code == 2
    _assert_one_error_line(capsys.readouterr().err, seed)


@pytest.mark.parametrize("argv,target", [
    (["verify-theorem1", "--size", "7"], "mostar.verify.survey"),
    (["verify-theorem2", "--size", "5"], "mostar.verify.survey"),
    (["atlas", "--max-size", "7"], "mostar.cli.run_atlas"),
], ids=["verify-theorem1", "verify-theorem2", "atlas"])
def test_threads_reach_the_survey_capped_or_exit(monkeypatch, tmp_path, argv, target):
    """Every --threads string either reaches the survey as
    min(n, _usable_cores()) workers, n its plain ASCII decimal value of
    at least 1, or exits 2 with one error line and no traceback."""

    class Reached(Exception):
        pass

    def recording(*args, workers, **kwargs):
        raise Reached(workers)

    monkeypatch.setattr(target, recording)
    output = str(tmp_path / "out.json")

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(st.one_of(_INTS.map(str), st.text(max_size=6)), st.sampled_from([1, 2, 64]))
    @example("+2", 2)
    @example("1_0", 64)
    @example(" 3", 2)
    @example("\u0663", 64)
    def check(threads, cores):
        monkeypatch.setattr("mostar.cli._usable_cores", lambda: cores)
        plain = re.fullmatch(r"-?[0-9]+", threads) and int(threads) >= 1
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                main([*argv, "--threads", threads, "--output", output])
            except Reached as reached:
                (workers,) = reached.args
                assert plain and workers == min(int(threads), cores), threads
            except SystemExit as exc:
                assert exc.code == 2 and not plain, threads
                _assert_one_error_line(err.getvalue(), threads)
            else:
                pytest.fail(f"--threads {threads!r} neither surveyed nor exited")

    check()


@pytest.mark.parametrize("argv,missing", [
    (["--report", "missing/rep.json"], "missing/rep.json"),
    (["--output", "missing/fam.json", "--report", "rep.json"], "missing/fam.json"),
], ids=["report", "output"])
def test_atlas_missing_output_directory(tmp_path, capsys, monkeypatch, argv, missing):
    """Rejected before any enumeration: the registry already in place (the
    default ./families.json) stays byte for byte, and no report is written."""
    def no_survey(*args, **kwargs):
        raise AssertionError("enumerated before the output paths were checked")

    monkeypatch.setattr(verify, "survey", no_survey)
    monkeypatch.chdir(tmp_path)
    registry = tmp_path / "families.json"
    registry.write_bytes(REGISTRY.read_bytes())
    with pytest.raises(SystemExit) as exc:
        main(["atlas", "--threads", "1", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"cannot write {missing}: no directory missing" in err
    assert "Traceback" not in err
    assert registry.read_bytes() == REGISTRY.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["families.json"]


@pytest.mark.parametrize("argv,target", [
    (["compute", "in.g6"], "mostar.cli.mostar_summary"),
    (["verify-theorem1", "--size", "12", "--threads", "1"], "mostar.verify.survey"),
    (["verify-theorem2", "--size", "10", "--threads", "1"], "mostar.verify.survey"),
    (["lemmas"], "mostar.cli.run_shift_suite"),
], ids=["compute", "verify-theorem1", "verify-theorem2", "lemmas"])
def test_missing_output_directory(tmp_path, capsys, monkeypatch, argv, target):
    """Rejected before any work starts: exit 2 with the path and its
    missing directory named, and nothing written."""
    def no_work(*args, **kwargs):
        raise AssertionError("worked before the output path was checked")

    monkeypatch.setattr(target, no_work)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.g6").write_text(write_graph6(cycle(4)) + "\n")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--output", "missing/out.json"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "cannot write missing/out.json: no directory missing" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.g6"]


@pytest.mark.parametrize("path", ["adir", ""], ids=["directory", "empty"])
@pytest.mark.parametrize("argv,target", [
    (["compute", "in.g6", "--output"], "mostar.cli.mostar_summary"),
    (["verify-theorem1", "--size", "12", "--threads", "1", "--output"], "mostar.verify.survey"),
    (["verify-theorem2", "--size", "10", "--threads", "1", "--output"], "mostar.verify.survey"),
    (["lemmas", "--output"], "mostar.cli.run_shift_suite"),
    (["atlas", "--threads", "1", "--output"], "mostar.verify.survey"),
    (["atlas", "--threads", "1", "--report"], "mostar.verify.survey"),
], ids=["compute", "verify-theorem1", "verify-theorem2", "lemmas", "atlas-output",
        "atlas-report"])
def test_output_path_directory_or_empty(tmp_path, capsys, monkeypatch, argv, target, path):
    """An --output or --report path that is an existing directory, or is
    empty, is rejected before any work starts: exit 2 with the path named,
    nothing written, and the registry in place (./families.json, the atlas
    default) byte for byte as it was."""
    def no_work(*args, **kwargs):
        raise AssertionError("worked before the output path was checked")

    monkeypatch.setattr(target, no_work)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.g6").write_text(write_graph6(cycle(4)) + "\n")
    (tmp_path / "adir").mkdir()
    registry = tmp_path / "families.json"
    registry.write_bytes(REGISTRY.read_bytes())
    with pytest.raises(SystemExit) as exc:
        main([*argv, path])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    want = "cannot write adir: is a directory" if path else "cannot write '': empty path"
    assert want in err and "Traceback" not in err
    assert registry.read_bytes() == REGISTRY.read_bytes()
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["adir", "families.json", "in.g6"]


@pytest.mark.parametrize("argv,target,clash", [
    (["atlas", "--threads", "1", "--output", "x.json", "--report", "x.json"],
     "mostar.verify.survey", "x.json: it is also the other output"),
    (["atlas", "--threads", "1", "--output", "new.json", "--report", "./new.json"],
     "mostar.verify.survey", "./new.json: it is also the other output"),
    (["atlas", "--threads", "1", "--report", "families.json"],
     "mostar.verify.survey", "families.json: it is also the other output"),
    (["verify-theorem1", "--size", "12", "--threads", "1", "--output", "families.json"],
     "mostar.verify.survey", "families.json: it is the input families.json"),
    (["verify-theorem2", "--size", "10", "--threads", "1", "--registry", "x.json",
      "--output", "./x.json"],
     "mostar.verify.survey", "./x.json: it is the input x.json"),
    (["compute", "in.g6", "--output", "in.g6"],
     "mostar.cli.mostar_summary", "in.g6: it is the input in.g6"),
    (["compute", "x.g6", "in.g6", "--output", "link.g6"],
     "mostar.cli.mostar_summary", "link.g6: it is the input in.g6"),
], ids=["atlas-both", "atlas-both-new", "atlas-default-output", "verify-theorem1-implicit",
        "verify-theorem2-explicit", "compute", "compute-hard-link"])
def test_output_that_is_an_input_or_the_other_output(tmp_path, capsys, monkeypatch,
                                                     argv, target, clash):
    """An output naming the same file as the other output, the registry
    the command reads (explicit, or the implicit ./families.json) or a
    compute input, by the same or another path (link.g6 is a hard link
    to in.g6), is rejected before any work starts: exit 2 with the path
    named, and every file as it was."""
    def no_work(*args, **kwargs):
        raise AssertionError("worked before the output paths were checked")

    monkeypatch.setattr(target, no_work)
    monkeypatch.chdir(tmp_path)
    for name in ("families.json", "x.json"):
        (tmp_path / name).write_bytes(REGISTRY.read_bytes())
    for name, g in (("in.g6", cycle(4)), ("x.g6", cycle(5))):
        (tmp_path / name).write_text(write_graph6(g) + "\n")
    (tmp_path / "link.g6").hardlink_to(tmp_path / "in.g6")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"cannot write {clash}" in err
    _assert_one_error_line(err, argv)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_atlas_unwritable_report_keeps_registry(tmp_path, capsys, monkeypatch):
    """A report name the filesystem refuses only at the write (300
    characters, past the 255 a file name may have) fails after the
    enumeration: exit 2 with one error line, and the registry in place
    (the default ./families.json) stays byte for byte, since the report
    is written before it."""
    surveyed = []
    real_survey = verify.survey

    def counting(*args, **kwargs):
        surveyed.append(1)
        return real_survey(*args, **kwargs)

    monkeypatch.setattr(verify, "survey", counting)
    monkeypatch.chdir(tmp_path)
    registry = tmp_path / "families.json"
    registry.write_bytes(REGISTRY.read_bytes())
    rc, _, err = run(capsys, ["atlas", "--max-size", "7", "--threads", "1",
                              "--report", "r" * 300])
    assert rc == 2 and surveyed
    assert err.startswith("error: ") and err.count("\n") == 1
    assert registry.read_bytes() == REGISTRY.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["families.json"]


@pytest.mark.parametrize("command", ["verify-theorem1", "verify-theorem2"])
def test_verify_size_and_range_exclusive(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--size", "7", "--range", "7-9", "--threads", "1"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("command,spec,verify_rows,lo,hi", [
    ("verify-theorem1", verify.TRICYCLIC, verify.verify_tricyclic, 7, 10),
    ("verify-theorem2", verify.BICYCLIC, verify.verify_bicyclic, 5, 9),
], ids=["theorem1", "theorem2"])
def test_verify_range_matches_single_task_surveys(tmp_path, capsys, command, spec,
                                                  verify_rows, lo, hi):
    """A --range run enumerates all its sizes in one survey; its JSON output
    is byte-identical to the rows built from one single-task survey per
    size."""
    out_file = tmp_path / "rows.json"
    rc, _, _ = run(capsys, [command, "--range", f"{lo}-{hi}", "--threads", "2",
                            "--registry", str(REGISTRY), "--output", str(out_file)])
    assert rc == 0
    singles = {m: survey([spec.task(m)])[spec.task(m)] for m in range(lo, hi + 1)}
    rows = verify_rows(sorted(singles), registry=FamilyRegistry.load(REGISTRY),
                       surveys=singles)
    expected = json.dumps([r.to_dict() for r in rows], indent=2, sort_keys=True) + "\n"
    assert out_file.read_text() == expected
