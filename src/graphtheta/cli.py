"""Command-line front end.

Subcommands: index, scan, near-ties, verify, enum.  Exit codes:
0 success / statement verified, 1 verification counterexample,
2 usage or input errors (a verify with no graph to check among them),
or a census worker that died.  A regular file named by --out or
--witness-out is replaced when the command runs to its end, whatever
its exit code, and left as it was when an error stops the command.
So ``index`` replaces it with the rows of its good lines even when it
exits 2 for bad ones.  ``scan`` refuses one file named by both.

Numeric fields in CSV output are printed with 9 significant digits;
JSON carries full binary64 round-trip values.  ``index`` writes each CSV
row as soon as its line is scored.

The census, universe and ``json`` modules are imported by the commands
that use them, so ``index`` and ``enum trees`` load none of them.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import stat
import sys
from contextlib import ExitStack, contextmanager, suppress
from typing import IO, Iterable, Iterator, Sequence

from . import __version__, treegen
from .graphs import DisconnectedGraphError, GraphError
from .graph6 import graph6_lines, parse_degree_pairs, to_graph6
from .indices import DEFAULT_ZERO_TOL, certified_sign, pairs_report


def _tolerance(text: str) -> float:
    """argparse type of --tol: a finite number > 0."""
    tol = float(text)
    if not 0 < tol < math.inf:  # also false for NaN
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return tol


def _parse_range(text: str) -> tuple[int, int]:
    """The orders lo, hi of a scan range "lo..hi" or "n"; ValueError
    unless both are integers with 3 <= lo <= hi."""
    lo, dots, hi = text.partition("..")
    with suppress(ValueError):
        orders = int(lo), int(hi if dots else lo)
        if 3 <= orders[0] <= orders[1]:
            return orders
    raise ValueError(f"invalid scan range {text}")


_tmp_ids = itertools.count()


@contextmanager
def _atomic_output(path: str) -> Iterator[IO[str]]:
    """Open ``path`` for writing.  A regular file (or a new one) is written
    to a temp file beside it that replaces it only when the block succeeds,
    so a failed command leaves ``path`` as it was.  Anything else (a
    symlink, device, FIFO) is written through directly."""
    try:
        st = os.lstat(path)
    except FileNotFoundError:
        st = None
    if st is not None and not stat.S_ISREG(st.st_mode):
        with open(path, "w", encoding="ascii") as fh:
            yield fh
        return
    head, base = os.path.split(path)
    while True:
        tmp = os.path.join(head, f".{base}.{os.getpid()}.{next(_tmp_ids)}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
        except OSError as exc:  # name the path given, not the temp file
            raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w", encoding="ascii") as fh:
            if st is not None:
                os.fchmod(fd, stat.S_IMODE(st.st_mode))
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _open_out(stack: ExitStack, path: str | None):
    if path is None or path == "-":
        return sys.stdout
    return stack.enter_context(_atomic_output(path))


def _input_bytes(stack: ExitStack, path: str | None) -> IO[bytes]:
    if path is None or path == "-":
        return sys.stdin.buffer
    return stack.enter_context(open(path, "rb"))


def _write_json(out: IO[str], obj) -> None:
    import json  # only JSON output needs it

    json.dump(obj, out, indent=2)
    out.write("\n")


def _write_csv(out: IO[str], schema: str, columns: Sequence[str],
               rows: Iterable[Sequence]) -> None:
    """A ``# schema:`` line, the column header, then each row (its values
    in column order) as it comes, floats to 9 significant digits."""
    out.write(f"# schema: {schema}\n")
    out.write(",".join(columns) + "\n")
    for row in rows:
        out.write(",".join([f"{v:.9g}" if isinstance(v, float) else str(v) for v in row])
                  + "\n")


# --- subcommands ------------------------------------------------------

INDEX_COLUMNS = ("graph6", "n", "m", "randic", "sum_connectivity", "abc", "abs", "gap", "sign")
SCAN_COLUMNS = ("n", "total", "positive", "negative", "zero", "negative_ratio",
                "min_abs_gap", "min_abs_gap_graph6")


def _index_rows(
    lines: Iterable[tuple[int, str]], tol: float, bad: list[int]
) -> Iterator[tuple]:
    """The INDEX_COLUMNS row of each graph6 line.  A line that is
    malformed or disconnected is reported on stderr, and its number
    appended to ``bad``, in place of a row."""
    for lineno, line in lines:
        try:
            n, pairs, connected = parse_degree_pairs(line)
            if not connected:
                raise DisconnectedGraphError("graph is not connected")
        except GraphError as exc:
            print(f"line {lineno}: {exc}", file=sys.stderr)
            bad.append(lineno)
            continue
        r = pairs_report(pairs)
        yield (line, n, len(pairs), *r, certified_sign(r.gap, pairs, tol).value)


def _cmd_index(args) -> int:
    bad: list[int] = []
    with ExitStack() as stack:
        lines = graph6_lines(_input_bytes(stack, getattr(args, "in")))
        out = _open_out(stack, args.out)
        rows = _index_rows(lines, args.tol, bad)
        if args.format == "json":
            _write_json(out, [dict(zip(INDEX_COLUMNS, row)) for row in rows])
        else:
            _write_csv(out, "index-v1", INDEX_COLUMNS, rows)
    return 2 if bad else 0


def _cmd_scan(args) -> int:
    from . import survey

    lo, hi = _parse_range(args.range)
    treegen.check_order(hi)  # before the census of the orders below it
    outs = [path for path in (args.out, args.witness_out) if path and path != "-"]
    if len(outs) == 2 and os.path.realpath(outs[0]) == os.path.realpath(outs[1]):
        raise ValueError(f"--out and --witness-out name one file: {args.witness_out}")
    cap = survey.DEFAULT_WITNESS_CAP if args.witness_cap is None else args.witness_cap
    if args.format == "csv" and not args.witness_out:
        cap = min(cap, 0)  # no witness is written; a negative cap is still refused
    with ExitStack() as stack:
        out = _open_out(stack, args.out)
        wf = _open_out(stack, args.witness_out) if args.witness_out else None
        records = [
            survey.classify_trees(n, tol=args.tol, workers=args.workers, witness_cap=cap)
            for n in range(lo, hi + 1)
        ]
        if args.format == "json":
            _write_json(out, [r._asdict() for r in records])
        else:
            _write_csv(out, "scan-v1", SCAN_COLUMNS, [(
                r.order, r.total, r.positive, r.negative, r.zero, r.negative_ratio,
                r.min_abs_gap, r.min_abs_gap_graph6) for r in records])
        if wf:
            for r in records:
                wf.write(f"# n={r.order} negative={r.negative}"
                         f" listed={len(r.negative_witnesses)}\n")
                for g6 in r.negative_witnesses:
                    wf.write(g6 + "\n")
    return 0


def _cmd_near_ties(args) -> int:
    from . import survey

    treegen.check_order(args.n)
    with ExitStack() as stack:
        out = _open_out(stack, args.out)
        ties = survey.find_near_ties(args.n, args.top_k)
        if args.format == "json":
            _write_json(out, [t._asdict() for t in ties])
        else:
            _write_csv(out, "near-ties-v1", survey.TieRecord._fields, ties)
    return 0


DEFAULT_MAX_ORDER = 6  # of the internal universes verify checks
STATEMENTS = ("p1", "p2", "t1", "t2", "t3")  # survey.STATEMENTS and p2


def _reject_unread_verify_flags(args) -> None:
    """Raise ValueError on a flag given to ``verify`` that its statement
    would not read."""
    ext = getattr(args, "in")
    if args.statement == "p2":
        where, unread = "verify p2", ("in", "order", "max_order")
    else:
        where = f"verify {args.statement}" + (" with --in" if ext else "")
        unread = ("trials", "seed", "max_order" if ext else "order")
    given = ["--" + a.replace("_", "-") for a in unread if getattr(args, a) is not None]
    if given:
        raise ValueError(f"{where} does not read {', '.join(given)}")


def _universes_for(args, min_order: int) -> list:
    from .smallgraphs import MAX_INTERNAL_ORDER, internal_universe, load_universe

    ext = getattr(args, "in")
    if ext:
        if args.order is None:
            raise GraphError("--order is required with --in")
        universes = [load_universe(ext, args.order)]
    else:
        max_order = DEFAULT_MAX_ORDER if args.max_order is None else args.max_order
        if max_order > MAX_INTERNAL_ORDER:
            raise GraphError(
                f"internal universes stop at order {MAX_INTERNAL_ORDER}; "
                "use --in for larger orders"
            )
        universes = [internal_universe(n) for n in range(min_order, max_order + 1)]
    # a report over no graph would read as verified
    if not any(universes):
        raise GraphError(f"nothing to check: {ext} has no graph" if ext else
                         f"nothing to check: --max-order is below {min_order}")
    return universes


def _cmd_verify(args) -> int:
    from . import survey

    _reject_unread_verify_flags(args)
    with ExitStack() as stack:
        out = _open_out(stack, args.out)
        if args.statement == "p2":
            # p2 gets only the flags given; the rest keep its verifier's defaults
            report = survey.verify_subdivision_invariance(**{
                k: getattr(args, k) for k in ("trials", "seed", "tol")
                if getattr(args, k) is not None
            })
        else:
            statement = survey.STATEMENTS[args.statement]
            report = survey.verify_statement(
                statement, _universes_for(args, statement.min_order), args.tol
            )
        _write_json(out, report._asdict())
    if report.conclusion_failures:
        for g6 in report.conclusion_failures:
            print(f"counterexample: {g6}", file=sys.stderr)
        return 1
    return 0


def _cmd_enum(args) -> int:
    if args.kind == "trees":
        treegen.check_order(args.n)
    with ExitStack() as stack:
        out = _open_out(stack, args.out)
        if args.kind == "trees":
            treegen.write_graph6_stream(args.n, out)
        else:
            from .smallgraphs import internal_universe

            for g in internal_universe(args.n):
                out.write(to_graph6(g) + "\n")
    return 0


# --- parser -----------------------------------------------------------

def _add_format_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphtheta",
        description="Degree-based index engine and exhaustive ABC-ABS gap surveys",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="index values for graph6 input")
    p.add_argument("--in", default=None, help="graph6 file (default stdin)")
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_ZERO_TOL, help="zero tolerance")
    _add_format_out(p)
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("scan", help="sign census over all trees of each order")
    p.add_argument("range", help="order range, e.g. 3..15 or 11")
    p.add_argument("--workers", type=int, default=1,
                   help="processes for the folds, forked when more than one (>= 1, "
                        "at most the CPU count); the main process runs the witness pass")
    p.add_argument("--witness-cap", type=int, default=None,
                   help="negative witnesses listed per order (>= 0)")
    p.add_argument("--witness-out", default=None,
                   help="dump negative witnesses as graph6 lines")
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_ZERO_TOL, help="zero tolerance")
    _add_format_out(p)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("near-ties", help="trees with the smallest |ABC-ABS|")
    p.add_argument("n", type=int)
    p.add_argument("--top-k", type=int, default=4)
    _add_format_out(p)
    p.set_defaults(func=_cmd_near_ties)

    p = sub.add_parser("verify", help="verify a statement over a universe")
    p.add_argument("statement", choices=STATEMENTS)
    p.add_argument("--max-order", type=int, default=None,
                   help=f"largest internal universe order (default {DEFAULT_MAX_ORDER})")
    p.add_argument("--in", default=None, help="external graph6 universe")
    p.add_argument("--order", type=int, default=None,
                   help="expected order of the external universe")
    p.add_argument("--trials", type=int, default=None, help="p2 trials")
    p.add_argument("--seed", type=int, default=None, help="p2 RNG seed")
    p.add_argument("--tol", type=_tolerance, default=None,
                   help="zero tolerance (default: the statement's own)")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("enum", help="emit a graph family as graph6 lines")
    p.add_argument("kind", choices=["trees", "connected"])
    p.add_argument("n", type=int)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_enum)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, ValueError, OSError) as exc:  # a dead worker: ChildProcessError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
