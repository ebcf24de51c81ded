"""Command-line front end for packet-reordering trace analysis.

Traces are plain text: integers separated by whitespace or newlines, ``#``
starting a comment, blank lines ignored.  A trace argument is the integers
themselves (``reorderlab map 4 3 2 1`` and ``reorderlab map "4 3 2 1"`` both
work), ``-`` for standard input, or a file path.  Arguments made of integers
are always inline, even when a file of that name exists.

``COMMANDS`` declares each subcommand once: its handler, its help and its
arguments.  ``main`` alone maps errors to exit codes.  ``run``, the process
entry point, switches the cyclic garbage collector off; ``main`` leaves it be.

Each ``cmd_*`` function returns a ``Report`` and ``render`` writes it: it
alone reads ``--format`` and writes results to standard output.  Text and
csv are lines, csv's header first, with the integers of a block of lines
formatted by one ``%``; json is one compact object with sorted keys.
Booleans are ``true``/``false`` in every format.  The csv lines of
``equiv``, ``verify`` and ``consistency`` are their text lines with the
first space made a comma (``consistency`` adds a leading ``consistent``
line).  ``reconstruct --format csv`` with no preimage prints the header only.

Exit codes: 0 success; 1 negative domain result (no preimage, inconsistent
metric, failed verification, traces not equivalent, buffer overflow);
2 malformed input or bad parameters, including a trace file that cannot be
read or is not UTF-8 and ``equiv`` given ``-`` for both traces; 141 standard
output closed before all of it was written (as a shell reports a tool
killed by SIGPIPE), with nothing printed to standard error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import partial
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .buffering import _equivalences, ack_sequence, buffer_sizes, segment_episodes
from .disorder import sus_partition
from .errors import CapacityExceededError, InvalidParameterError, ReorderError
from .metrics import (
    consistency_counterexample,
    mean_buffer_size,
    rcv_window_series,
    reorder_density,
)
from .oracle import MAX_IDENTITY_N, verify_identities, verify_theorem
from .reconstruct import reconstruct

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_PIPE = 141  # 128 + SIGPIPE


class TraceParseError(ReorderError):
    """A trace file or inline sequence could not be parsed."""


def parse_trace(text: str, source: str) -> list[int]:
    """Parse trace text into integers, reporting offending line numbers."""
    if "#" in text:
        # cut each line at its comment; rejoining with "\n" keeps line numbers
        text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    try:
        return list(map(int, text.split()))
    except ValueError:
        token = _first_non_integer(text.split())
    lineno = next(i for i, line in enumerate(text.splitlines(), start=1) if token in line.split())
    raise TraceParseError(f"{source}:{lineno}: not an integer: {_shown(token)}")


def resolve_trace(tokens: Sequence[str]) -> list[int]:
    """Resolve positional trace arguments to a list of integers.

    Tokens made of integers are inline values, ``-`` reads standard input,
    and a single other token that names an existing file is read as a file.
    """
    if len(tokens) == 1 and tokens[0] == "-":
        return parse_trace(sys.stdin.read(), "<stdin>")
    pieces = " ".join(tokens).split()
    try:
        return list(map(int, pieces))
    except ValueError:
        if len(tokens) != 1 or not os.path.exists(tokens[0]):
            shown = _shown(_first_non_integer(pieces))
            raise TraceParseError(
                f"not a readable trace file and not an integer: {shown}"
            ) from None
    path = tokens[0]
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise TraceParseError(f"cannot read {path}: {exc}") from None
    return parse_trace(text, path)


def _first_non_integer(tokens: Iterable[str]) -> str | None:
    """The first token ``int`` rejects: the error path of a whole-text parse."""
    for token in tokens:
        try:
            int(token)
        except ValueError:
            return token
    return None


def _shown(token: str) -> str:
    """A rejected token as an error message echoes it: overlong ones are cut."""
    if len(token) <= 40:
        return repr(token)
    return f"{token[:40]!r}... ({len(token)} characters)"


class Report(NamedTuple):
    """A command's result: text, json and csv views, and an exit code.

    ``render`` calls only the chosen view.  Text and csv give newline-ended lines.
    """

    text: Callable[[], Iterable[str]]
    json: Callable[[], object]
    csv: Callable[[], Iterable[str]]
    code: int = EXIT_OK


def render(report: Report, fmt: str) -> None:
    """Write a report's chosen view to standard output: the json object, or the joined lines."""
    view = getattr(report, fmt)()
    if fmt == "json":
        import json

        print(json.dumps(view, sort_keys=True, separators=(",", ":")))
    else:
        sys.stdout.write("".join(view))


def _block(row: str, *columns: Iterable[object]) -> str:
    """``row`` once per entry of the sized first column, filled by one ``%``: no str per value."""
    rows, width = len(columns[0]) if columns else 0, len(columns)
    values: list[object] = [None] * (rows * width)
    for i, column in enumerate(columns):
        values[i::width] = column
    return (row * rows) % tuple(values)


def _words(label: str, values: Sequence[int]) -> str:
    """A text line: ``label``, then ``values``, space-separated."""
    return label + _block(" %d", values) + "\n"


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _pairs(lines: Iterable[str]) -> Iterator[str]:
    """Key-value csv lines: each text line with its first space made a comma."""
    return (line.replace(" ", ",", 1) for line in lines)


def _witnesses(witness: tuple[tuple[int, ...], ...] | None) -> Iterator[str]:
    """The two permutations of a colliding pair, if any, one labelled line each."""
    return map(_words, ("witness-a", "witness-b"), witness or ())


def _series(values: tuple[int, ...]) -> Report:
    return Report(
        lambda: [_block("%d\n", values)],
        lambda: {"values": values},
        lambda: ["position,value\n", _block("%d,%d\n", range(1, len(values) + 1), values)],
    )


def cmd_map(args: argparse.Namespace) -> Report:
    return _series(buffer_sizes(resolve_trace(args.trace)))


def cmd_ack(args: argparse.Namespace) -> Report:
    return _series(ack_sequence(resolve_trace(args.trace)))


def cmd_rcvwindow(args: argparse.Namespace) -> Report:
    series = rcv_window_series(resolve_trace(args.trace), args.rcv_buffer)
    return _series(series.values)._replace(
        json=lambda: {"rcv_buffer": series.rcv_buffer, "values": series.values}
    )


def cmd_sus(args: argparse.Namespace) -> Report:
    part = sus_partition(resolve_trace(args.trace))
    return Report(
        lambda: chain([f"sus {part.sus}\n"], (_words("list", lst) for lst in part.lists)),
        lambda: {"lists": part.lists, "sus": part.sus},
        lambda: chain(
            ["list,id\n"], (_block(f"{i},%d\n", lst) for i, lst in enumerate(part.lists, start=1))
        ),
    )


def cmd_episodes(args: argparse.Namespace) -> Report:
    ids = resolve_trace(args.trace)
    seg = segment_episodes(ids)
    pos, is_pivot = range(1, len(ids) + 1), seg.pivots.__contains__
    return Report(
        lambda: [
            _block("episode %s %d %d\n", *zip(*seg.episodes)),
            _words("pivots", sorted(seg.pivots)),
            _words("pivot-packets", sorted(seg.pivot_packets)),
        ],
        lambda: {
            "episodes": [ep._asdict() for ep in seg.episodes],
            "pivots": sorted(seg.pivots),
            "pivot_packets": sorted(seg.pivot_packets),
        },
        # one state_at call per position; %d prints the pivot flags (bools) as 1/0
        lambda: [
            "position,id,state,pivot\n",
            _block("%d,%d,%s,%d\n", pos, ids, map(seg.state_at, pos), map(is_pivot, pos)),
        ],
    )


def cmd_rd(args: argparse.Namespace) -> Report:
    dist = reorder_density(resolve_trace(args.trace), args.dt)
    counts = sorted(dist.counts.items(), key=itemgetter(0))
    return Report(
        lambda: [_block(f"%d %d/{dist.total}\n", *zip(*counts))],
        lambda: {
            "counts": {str(d): c for d, c in counts},
            "dt": "inf" if dist.dt == math.inf else dist.dt,
            "total": dist.total,
        },
        lambda: ["displacement,count,total\n", _block(f"%d,%d,{dist.total}\n", *zip(*counts))],
    )


def cmd_equiv(args: argparse.Namespace) -> Report:
    if args.trace_a == args.trace_b == "-":
        raise InvalidParameterError("at most one trace can come from standard input")
    a, b = resolve_trace([args.trace_a]), resolve_trace([args.trace_b])
    fb, beh = _equivalences(a, b)
    lines = (f"fb-equivalent {_flag(fb)}\n", f"behaviorally-equivalent {_flag(beh)}\n")
    return Report(
        lambda: lines,
        lambda: {"behaviorally_equivalent": beh, "fb_equivalent": fb},
        lambda: chain(["predicate,value\n"], _pairs(lines)),
        EXIT_OK if fb else EXIT_NEGATIVE,
    )


def cmd_reconstruct(args: argparse.Namespace) -> Report:
    perm = reconstruct(resolve_trace(args.trace))
    return Report(
        # the permutation's line drops the space before its first value
        lambda: ["NO PERMUTATION EXISTS\n" if perm is None else _block(" %d", perm)[1:] + "\n"],
        lambda: {"permutation": perm},
        lambda: ["position,id\n", _block("%d,%d\n", range(1, len(perm or ()) + 1), perm or ())],
        EXIT_NEGATIVE if perm is None else EXIT_OK,
    )


def cmd_verify(args: argparse.Namespace) -> Report:
    n = args.n
    theorem_witness = verify_theorem(n)
    skipped = n > MAX_IDENTITY_N
    identities_witness = None if skipped else verify_identities(n)
    theorem = "pass" if theorem_witness is None else "fail"
    identities = "skipped" if skipped else "pass" if identities_witness is None else "fail"

    def text() -> Iterator[str]:
        yield f"theorem {theorem}\n"
        yield from _witnesses(theorem_witness)
        yield f"identities {identities}\n"
        if identities_witness is not None:
            yield _words("witness", identities_witness.permutation)
            yield f"check {identities_witness.check}\n"

    return Report(
        text,
        lambda: {
            "n": n,
            "theorem": theorem,
            "theorem_witness": theorem_witness,
            "identities": identities,
            "identities_witness": identities_witness and identities_witness._asdict(),
        },
        lambda: chain(["check,result\n"], _pairs(text())),
        EXIT_OK if theorem_witness is None and identities_witness is None else EXIT_NEGATIVE,
    )


def cmd_consistency(args: argparse.Namespace) -> Report:
    if args.metric == "rd":
        if args.dt is None:
            raise InvalidParameterError("--metric rd requires --dt")
        metric = partial(reorder_density, dt=args.dt)
    else:
        metric = mean_buffer_size
    witness = consistency_counterexample(metric, args.n)
    ok = witness is None
    return Report(
        lambda: chain(["consistent\n" if ok else "inconsistent\n"], _witnesses(witness)),
        lambda: {"consistent": ok, "witness": witness},
        lambda: chain(["field,value\n", f"consistent,{_flag(ok)}\n"], _pairs(_witnesses(witness))),
        EXIT_OK if ok else EXIT_NEGATIVE,
    )


def _dt_value(text: str) -> int | float:
    try:
        if (dt := math.inf if text == "inf" else int(text)) > 0:
            return dt
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a positive integer or 'inf', got {text!r}")


_FORMAT = (
    "--format",
    dict(choices=["text", "json", "csv"], default="text", help="output format (default: text)"),
)
_TRACE = ("trace", dict(nargs="+", help="trace file, '-' for stdin, or inline integers"))
_N = ("--n", dict(type=int, required=True, help="permutation length"))
_DT = dict(type=_dt_value, metavar="DT")

# name: (handler, help, arguments after --format), in the order usage lists them
COMMANDS = {
    "map": (cmd_map, "buffer size after each arrival", [_TRACE]),
    "ack": (cmd_ack, "cumulative ACK after each arrival", [_TRACE]),
    "sus": (cmd_sus, "greedy ascending-list partition and SUS value", [_TRACE]),
    "episodes": (cmd_episodes, "ordered/unordered episodes and pivot packets", [_TRACE]),
    "rd": (
        cmd_rd,
        "displacement distribution of a permutation",
        [
            _TRACE,
            ("--dt", dict(_DT, required=True,
                          help="truncation threshold: positive integer or 'inf'")),
        ],
    ),
    "rcvwindow": (
        cmd_rcvwindow,
        "advertised window for a given buffer capacity",
        [
            _TRACE,
            ("--rcv-buffer", dict(type=int, required=True, metavar="SIZE",
                                  help="receiver buffer capacity in packets")),
        ],
    ),
    "equiv": (
        cmd_equiv,
        "compare two traces for buffer and behavioral equivalence",
        [
            ("trace_a", dict(help="first trace: file, '-', or quoted inline integers")),
            ("trace_b", dict(help="second trace: file, '-', or quoted inline integers")),
        ],
    ),
    "reconstruct": (
        cmd_reconstruct,
        "rebuild the unique SUS<=3 permutation from a buffer-size series",
        [_TRACE],
    ),
    "verify": (cmd_verify, "exhaustively verify uniqueness and cross-check identities", [_N]),
    "consistency": (
        cmd_consistency,
        "probe a metric for consistency under buffer equivalence",
        [
            ("--metric", dict(choices=["rd", "mean-buffer"], required=True,
                              help="metric to probe")),
            ("--dt", dict(_DT, help="threshold for --metric rd: positive integer or 'inf'")),
            _N,
        ],
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reorderlab",
        description="Analyze packet-ID traces through receiver buffer dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in [_FORMAT, *arguments]:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            report = args.func(args)
            render(report, args.format)
            return report.code
        except ReorderError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NEGATIVE if isinstance(exc, CapacityExceededError) else EXIT_INPUT
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away.  Point stdout at the null device so the
        # flush at interpreter exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE


def run() -> None:
    import gc

    gc.disable()  # the run makes no input-sized cycles; a collection would only rescan its lists
    raise SystemExit(main())
