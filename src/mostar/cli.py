"""Command-line front end.

Subcommands:
  compute          edge Mostar summaries for graph6 input lines
  verify-theorem1  exhaustive check of the tricyclic maxima table
  verify-theorem2  exhaustive check of the bicyclic maxima table
  atlas            run family discovery, write the registry and report
  lemmas           verify the pendant-shift delta rules

Exit codes: 0 success, 1 verification failure, 2 usage or input error,
3 partial (skipped inputs or unresolved families).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from pathlib import Path

from .families import FamilyRegistry, builtin_registry
from .graphs import Graph6Error, GraphError, parse_graph6
from .indices import mostar_summary
from .shifts import run_shift_suite
from .verify import BICYCLIC, TRICYCLIC, run_atlas, verify_bicyclic, verify_tricyclic


def _registry_path(path: str | None) -> str | None:
    """The registry file a verify command reads: `path` when given, else
    ./families.json when it exists, else None (the built-in registry).
    An empty `path` is rejected, not read as "not given"."""
    if path == "":
        raise UsageError("cannot read registry '': empty path")
    if path is not None:
        return path
    return "families.json" if Path("families.json").exists() else None


def _load_registry(path: str | None) -> FamilyRegistry:
    if path is None:
        return builtin_registry()
    try:
        return FamilyRegistry.load(path)
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise UsageError(
            f"registry {path} is not a families registry: "
            f"{type(exc).__name__}: {exc}"
        )


def _same_file(a: str, b: str) -> bool:
    """Whether two paths name one file: `os.path.samefile` when both exist,
    else equal `os.path.realpath`s."""
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist
        return os.path.realpath(a) == os.path.realpath(b)


def _check_outputs(*paths: str | None, reads: tuple[str | None, ...] = ()) -> None:
    """Reject an output path that is empty, an existing directory, in a
    missing directory, the same file as another output or the same file
    as one the command `reads`, before any work starts; the write itself
    comes only after the enumeration or suite."""
    written: list[str] = []
    for path in paths:
        if path is None:
            continue
        if not path:
            raise UsageError("cannot write '': empty path")
        if os.path.isdir(path):
            raise UsageError(f"cannot write {path}: is a directory")
        if not os.path.isdir(Path(path).parent):
            raise UsageError(f"cannot write {path}: no directory {Path(path).parent}")
        if any(_same_file(path, other) for other in written):
            raise UsageError(f"cannot write {path}: it is also the other output")
        for other in reads:
            if other is not None and _same_file(path, other):
                raise UsageError(f"cannot write {path}: it is the input {other}")
        written.append(path)


def _write_output(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


class UsageError(Exception):
    """Arguments that parse but cannot be run; reported with exit code 2."""


def _integer(text: str) -> int:
    # ASCII only: `int` alone also reads "+7", "1_0", " 7" and other scripts' digits
    try:
        return int(re.fullmatch(r"-?[0-9]+", text)[0])
    except (TypeError, ValueError):  # no match, or more digits than `int` converts
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None


def _positive_int(text: str) -> int:
    if (value := _integer(text)) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _size_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = map(_integer, text.partition("-")[::2])  # the text either side of the first "-"
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"expected A-B with integers A <= B, got {text!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"reversed range {text!r}: {lo} > {hi}")
    return lo, hi


def _parse_sizes(args) -> list[int]:
    """The requested sizes, checked by their ends alone (they are
    consecutive), so a huge --range is rejected before it is listed."""
    spec = args.spec
    if args.size is not None:
        lo = hi = args.size
    else:
        # by default the table itself: its first listed size through its tail's start
        lo, hi = args.range or (min(spec.listed_max), spec.tail_start)
    if lo not in spec.sizes or hi not in spec.sizes:
        raise UsageError(f"sizes {lo}..{hi} outside supported range "
                         f"{spec.sizes[0]}..{spec.sizes[-1]}")
    return list(range(lo, hi + 1))


def cmd_compute(args) -> int:
    _check_outputs(args.output, reads=tuple(args.inputs))
    sources: list[tuple[bytes, str]] = []
    if args.inputs:
        for fname in args.inputs:
            try:
                sources.append((Path(fname).read_bytes(), fname))
            except OSError as exc:
                print(_one_line(f"error: cannot read {fname}: {exc}"), file=sys.stderr)
                return 2
    else:
        sources.append((sys.stdin.buffer.read(), "<stdin>"))
    out_rows = []  # (graph, summary)
    read = skipped = 0
    for data, src in sources:
        # undecodable bytes become lone surrogates, which the graph6 parser
        # reports as non-ASCII characters on their own line
        text = data.decode("utf-8", errors="surrogateescape")
        for no, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            read += 1
            try:
                g = parse_graph6(line)
            except Graph6Error as exc:
                print(_one_line(f"{src}:{no}: parse error: {exc}"), file=sys.stderr)
                skipped += 1
                continue
            try:
                out_rows.append((g, mostar_summary(g)))
            except GraphError:
                print(_one_line(f"{src}:{no}: disconnected graph skipped"), file=sys.stderr)
                skipped += 1
    if not read:
        print("error: no graph6 input", file=sys.stderr)
        return 2
    if args.format == "json":
        text = "".join(r.to_json() + "\n" for _, r in out_rows)
    else:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["graph6", "n", "m", "edge_mostar"])
        for g, r in out_rows:
            w.writerow([r.graph6, g.n, g.m, r.edge_mostar])
        text = buf.getvalue()
    _write_output(text, args.output)
    return 3 if skipped else 0


def _emit_rows(rows, args) -> None:
    if args.format == "json":
        text = json.dumps([r.to_dict() for r in rows], indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["m", "expected_max", "observed_max",
                    "observed_maximizer_count", "status", "note"])
        for r in rows:
            w.writerow([r.m, r.expected_max, r.observed_max,
                        r.observed_maximizer_count, r.status, r.note])
        text = buf.getvalue()
    _write_output(text, args.output)


def cmd_verify(args) -> int:
    registry = _registry_path(args.registry)
    _check_outputs(args.output, reads=(registry,))
    rows = args.verify(
        _parse_sizes(args),
        registry=_load_registry(registry),
        # at most one worker per core: the count never changes results
        workers=min(args.threads, os.cpu_count() or 1),
    )
    _emit_rows(rows, args)
    return 0 if all(r.status != "FAIL" for r in rows) else 1


def cmd_atlas(args) -> int:
    try:
        TRICYCLIC.atlas_sizes(args.max_size, "--max-size")
    except ValueError as exc:
        raise UsageError(str(exc))
    _check_outputs(args.output, args.report)
    result = run_atlas(
        tri_max_size=args.max_size,
        bi_max_size=min(args.max_size, BICYCLIC.tail_start),
        workers=min(args.threads, os.cpu_count() or 1),
    )
    # the report first, so an unwritable report path leaves the registry as it was
    report_text = json.dumps(result.report.to_dict(), indent=2, sort_keys=True) + "\n"
    _write_output(report_text, args.report)
    result.registry.save(args.output)
    print(_one_line(f"registry written to {args.output}"), file=sys.stderr)
    if result.report.unresolved:
        print(f"unresolved families: {sorted(result.report.unresolved)}",
              file=sys.stderr)
        return 3
    return 0


def cmd_lemmas(args) -> int:
    _check_outputs(args.output)
    report = run_shift_suite(count=args.count, seed=args.seed)
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    _write_output(text, args.output)
    statuses = report.statuses()
    return 0 if all(s in ("MATCH", "SKIPPED") for s in statuses.values()) else 1


def _add_common(p, default_threads) -> None:
    p.add_argument("--threads", type=_positive_int, default=default_threads,
                   help="enumeration worker processes")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", help="write to this path instead of stdout")
    p.add_argument("--registry", help="families registry JSON "
                   "(default: ./families.json if present)")
    sizes = p.add_mutually_exclusive_group()
    sizes.add_argument("--size", type=_integer, help="verify a single size m")
    sizes.add_argument("--range", type=_size_range,
                       help="verify sizes A-B inclusive, e.g. 7-12")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mostar",
        description="edge Mostar index computation and extremal verification",
    )
    default_threads = os.cpu_count() or 1
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="summaries for graph6 input")
    p.add_argument("inputs", nargs="*", help="graph6 files (default: stdin)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output")
    p.set_defaults(func=cmd_compute)

    for name, help_text, verify, spec in (
        ("verify-theorem1", "tricyclic maxima table", verify_tricyclic, TRICYCLIC),
        ("verify-theorem2", "bicyclic maxima table", verify_bicyclic, BICYCLIC),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p, default_threads)
        p.set_defaults(func=cmd_verify, verify=verify, spec=spec)

    p = sub.add_parser("atlas", help="discover families, write registry")
    p.add_argument("--output", default="families.json")
    p.add_argument("--report", help="write the discovery report here")
    tops = TRICYCLIC.atlas_tops
    p.add_argument("--max-size", type=_integer, default=12,
                   help=f"largest tricyclic size to enumerate ({tops[0]}..{tops[-1]}); "
                   f"the bicyclic one is the smaller of it and {BICYCLIC.tail_start}")
    p.add_argument("--threads", type=_positive_int, default=default_threads)
    p.set_defaults(func=cmd_atlas)

    p = sub.add_parser("lemmas", help="verify pendant-shift delta rules")
    p.add_argument("--count", type=_positive_int, default=20,
                   help="at most this many parameter tuples per rule and region")
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--output")
    p.set_defaults(func=cmd_lemmas)
    return parser


def _one_line(text: object) -> str:
    """`text` with every character that is not printable, line breaks
    included, written as its escape: a message quotes input (a registry's
    family id, a path) that may hold any character."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(text))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        parser.error(_one_line(exc))
    except (GraphError, Graph6Error, OSError) as exc:
        print(f"error: {_one_line(exc)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
