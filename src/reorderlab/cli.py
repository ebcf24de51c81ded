"""Command-line front end for packet-reordering trace analysis.

Traces are plain text: integers separated by whitespace or newlines, ``#``
starting a comment, blank lines ignored.  A trace argument is the integers
themselves (``reorderlab map 4 3 2 1`` and ``reorderlab map "4 3 2 1"`` both
work), ``-`` for standard input, or a file path.  Arguments made of integers
are always inline, even when a file of that name exists.

Exit codes: 0 success; 1 negative domain result (no preimage, inconsistent
metric, failed verification, traces not equivalent, buffer overflow);
2 malformed input or bad parameters; 141 standard output closed before all
of it was written (as a shell reports a tool killed by SIGPIPE), with
nothing printed to standard error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from typing import Sequence

from .buffering import (
    ack_sequence,
    behaviorally_equivalent,
    buffer_sizes,
    fb_equivalent,
    segment_episodes,
)
from .disorder import sus_partition
from .errors import (
    CapacityExceededError,
    InvalidParameterError,
    InvalidSequenceError,
    ReorderError,
)
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
    if "#" not in text:
        try:
            return list(map(int, text.split()))
        except ValueError:
            pass  # the line-by-line pass below names the line
    values: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for token in line.split():
            try:
                values.append(int(token))
            except ValueError:
                raise TraceParseError(
                    f"{source}:{lineno}: not an integer: {token!r}"
                ) from None
    return values


def resolve_trace(tokens: Sequence[str]) -> list[int]:
    """Resolve positional trace arguments to a list of integers.

    Tokens made of integers are inline values, ``-`` reads standard input,
    and a single other token that names an existing file is read as a file.
    """
    if len(tokens) == 1 and tokens[0] == "-":
        return parse_trace(sys.stdin.read(), "<stdin>")
    values: list[int] = []
    for token in tokens:
        for piece in token.split():
            try:
                values.append(int(piece))
            except ValueError:
                if len(tokens) == 1 and os.path.exists(token):
                    return _read_trace_file(token)
                raise TraceParseError(
                    f"not a readable trace file and not an integer: {piece!r}"
                ) from None
    return values


def _read_trace_file(path: str) -> list[int]:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_trace(fh.read(), path)
    except OSError as exc:
        raise TraceParseError(f"cannot read {path}: {exc}") from None


def _emit_lines(lines: Sequence[object]) -> None:
    """Write each item on its own line, in one write."""
    if lines:
        sys.stdout.write("\n".join(map(str, lines)) + "\n")


def _emit_json(obj: object) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _emit_csv(header: list[str], rows: list[tuple]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _emit_values(values: tuple[int, ...], fmt: str, extra: dict | None = None) -> None:
    if fmt == "json":
        obj: dict[str, object] = {"values": list(values)}
        obj.update(extra or {})
        _emit_json(obj)
    elif fmt == "csv":
        _emit_csv(["position", "value"], list(enumerate(values, start=1)))
    else:
        _emit_lines(values)


def cmd_map(args: argparse.Namespace) -> int:
    _emit_values(buffer_sizes(resolve_trace(args.trace)), args.format)
    return EXIT_OK


def cmd_ack(args: argparse.Namespace) -> int:
    _emit_values(ack_sequence(resolve_trace(args.trace)), args.format)
    return EXIT_OK


def cmd_sus(args: argparse.Namespace) -> int:
    part = sus_partition(resolve_trace(args.trace))
    if args.format == "json":
        _emit_json({"lists": [list(lst) for lst in part.lists], "sus": part.sus})
    elif args.format == "csv":
        rows = [(i, v) for i, lst in enumerate(part.lists, start=1) for v in lst]
        _emit_csv(["list", "id"], rows)
    else:
        _emit_lines(
            [f"sus {part.sus}", *(" ".join(["list", *map(str, lst)]) for lst in part.lists)]
        )
    return EXIT_OK


def cmd_episodes(args: argparse.Namespace) -> int:
    ids = resolve_trace(args.trace)
    seg = segment_episodes(ids)
    if args.format == "json":
        _emit_json(
            {
                "episodes": [
                    {"state": ep.state, "start": ep.start, "end": ep.end}
                    for ep in seg.episodes
                ],
                "pivots": sorted(seg.pivots),
                "pivot_packets": sorted(seg.pivot_packets),
            }
        )
    elif args.format == "csv":
        rows = [
            (pos, ids[pos - 1], seg.state_at(pos), int(pos in seg.pivots))
            for pos in range(1, len(ids) + 1)
        ]
        _emit_csv(["position", "id", "state", "pivot"], rows)
    else:
        _emit_lines(
            [
                *(f"episode {ep.state} {ep.start} {ep.end}" for ep in seg.episodes),
                " ".join(["pivots", *map(str, sorted(seg.pivots))]),
                " ".join(["pivot-packets", *map(str, sorted(seg.pivot_packets))]),
            ]
        )
    return EXIT_OK


def cmd_rd(args: argparse.Namespace) -> int:
    dist = reorder_density(resolve_trace(args.trace), args.dt)
    if args.format == "json":
        _emit_json(
            {
                "counts": {str(d): c for d, c in sorted(dist.counts.items())},
                "dt": "inf" if dist.dt == math.inf else dist.dt,
                "total": dist.total,
            }
        )
    elif args.format == "csv":
        rows = [(d, c, dist.total) for d, c in sorted(dist.counts.items())]
        _emit_csv(["displacement", "count", "total"], rows)
    else:
        for d, c in sorted(dist.counts.items()):
            print(d, f"{c}/{dist.total}")
    return EXIT_OK


def cmd_rcvwindow(args: argparse.Namespace) -> int:
    series = rcv_window_series(resolve_trace(args.trace), args.rcv_buffer)
    _emit_values(series.values, args.format, extra={"rcv_buffer": series.rcv_buffer})
    return EXIT_OK


def cmd_equiv(args: argparse.Namespace) -> int:
    a = resolve_trace([args.trace_a])
    b = resolve_trace([args.trace_b])
    fb = fb_equivalent(a, b)
    beh = behaviorally_equivalent(a, b)
    if args.format == "json":
        _emit_json({"behaviorally_equivalent": beh, "fb_equivalent": fb})
    elif args.format == "csv":
        _emit_csv(
            ["predicate", "value"],
            [("fb-equivalent", fb), ("behaviorally-equivalent", beh)],
        )
    else:
        print("fb-equivalent", "true" if fb else "false")
        print("behaviorally-equivalent", "true" if beh else "false")
    return EXIT_OK if fb else EXIT_NEGATIVE


def cmd_reconstruct(args: argparse.Namespace) -> int:
    perm = reconstruct(resolve_trace(args.trace))
    if args.format == "json":
        _emit_json({"permutation": None if perm is None else list(perm)})
    elif args.format == "csv":
        _emit_csv(["position", "id"], list(enumerate(perm or (), start=1)))
    else:
        if perm is None:
            print("NO PERMUTATION EXISTS")
        else:
            print(" ".join(str(v) for v in perm))
    return EXIT_NEGATIVE if perm is None else EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    n = args.n
    theorem_witness = verify_theorem(n)
    identities_witness = None
    identities_skipped = n > MAX_IDENTITY_N
    if not identities_skipped:
        identities_witness = verify_identities(n)
    ok = theorem_witness is None and identities_witness is None
    if args.format == "json":
        _emit_json(
            {
                "n": n,
                "theorem": "pass" if theorem_witness is None else "fail",
                "theorem_witness": None
                if theorem_witness is None
                else [list(theorem_witness[0]), list(theorem_witness[1])],
                "identities": "skipped"
                if identities_skipped
                else ("pass" if identities_witness is None else "fail"),
                "identities_witness": None
                if identities_witness is None
                else {
                    "permutation": list(identities_witness.permutation),
                    "check": identities_witness.check,
                },
            }
        )
    elif args.format == "csv":
        rows = [
            ("theorem", "pass" if theorem_witness is None else "fail"),
            (
                "identities",
                "skipped"
                if identities_skipped
                else ("pass" if identities_witness is None else "fail"),
            ),
        ]
        _emit_csv(["check", "result"], rows)
    else:
        print("theorem", "pass" if theorem_witness is None else "fail")
        if theorem_witness is not None:
            print("witness-a", *theorem_witness[0])
            print("witness-b", *theorem_witness[1])
        if identities_skipped:
            print("identities skipped")
        else:
            print("identities", "pass" if identities_witness is None else "fail")
            if identities_witness is not None:
                print("witness", *identities_witness.permutation)
                print("check", identities_witness.check)
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_consistency(args: argparse.Namespace) -> int:
    if args.metric == "rd":
        if args.dt is None:
            print("error: --metric rd requires --dt", file=sys.stderr)
            return EXIT_INPUT
        dt = args.dt
        metric = lambda p: reorder_density(p, dt)  # noqa: E731
    else:
        metric = mean_buffer_size
    witness = consistency_counterexample(metric, args.n)
    if args.format == "json":
        _emit_json(
            {
                "consistent": witness is None,
                "witness": None
                if witness is None
                else [list(witness[0]), list(witness[1])],
            }
        )
    elif args.format == "csv":
        rows: list[tuple] = [("consistent", witness is None)]
        if witness is not None:
            rows.append(("witness-a", " ".join(map(str, witness[0]))))
            rows.append(("witness-b", " ".join(map(str, witness[1]))))
        _emit_csv(["field", "value"], rows)
    else:
        if witness is None:
            print("consistent")
        else:
            print("inconsistent")
            print("witness-a", *witness[0])
            print("witness-b", *witness[1])
    return EXIT_OK if witness is None else EXIT_NEGATIVE


def _dt_value(text: str) -> int | float:
    if text == "inf":
        return math.inf
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reorderlab",
        description="Analyze packet-ID traces through receiver buffer dynamics.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=["text", "json", "csv"],
        default="text",
        help="output format (default: text)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_trace_command(name: str, func, help_text: str):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument(
            "trace",
            nargs="+",
            help="trace file, '-' for stdin, or inline integers",
        )
        p.set_defaults(func=func)
        return p

    add_trace_command("map", cmd_map, "buffer size after each arrival")
    add_trace_command("ack", cmd_ack, "cumulative ACK after each arrival")
    add_trace_command("sus", cmd_sus, "greedy ascending-list partition and SUS value")
    add_trace_command(
        "episodes", cmd_episodes, "ordered/unordered episodes and pivot packets"
    )

    p = add_trace_command("rd", cmd_rd, "displacement distribution of a permutation")
    p.add_argument(
        "--dt",
        type=_dt_value,
        required=True,
        metavar="DT",
        help="truncation threshold: positive integer or 'inf'",
    )

    p = add_trace_command(
        "rcvwindow", cmd_rcvwindow, "advertised window for a given buffer capacity"
    )
    p.add_argument(
        "--rcv-buffer",
        type=int,
        required=True,
        metavar="SIZE",
        help="receiver buffer capacity in packets",
    )

    p = sub.add_parser(
        "equiv",
        parents=[common],
        help="compare two traces for buffer and behavioral equivalence",
    )
    p.add_argument("trace_a", help="first trace: file, '-', or quoted inline integers")
    p.add_argument("trace_b", help="second trace: file, '-', or quoted inline integers")
    p.set_defaults(func=cmd_equiv)

    add_trace_command(
        "reconstruct",
        cmd_reconstruct,
        "rebuild the unique SUS<=3 permutation from a buffer-size series",
    )

    p = sub.add_parser(
        "verify",
        parents=[common],
        help="exhaustively verify uniqueness and cross-check identities",
    )
    p.add_argument("--n", type=int, required=True, help="permutation length")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "consistency",
        parents=[common],
        help="probe a metric for consistency under buffer equivalence",
    )
    p.add_argument(
        "--metric",
        choices=["rd", "mean-buffer"],
        required=True,
        help="metric to probe",
    )
    p.add_argument(
        "--dt",
        type=_dt_value,
        default=None,
        metavar="DT",
        help="threshold for --metric rd: positive integer or 'inf'",
    )
    p.add_argument("--n", type=int, required=True, help="permutation length")
    p.set_defaults(func=cmd_consistency)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        try:
            return _dispatch(build_parser().parse_args(argv))
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away.  Point stdout at the null device so the
        # flush at interpreter exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE


def _dispatch(args: argparse.Namespace) -> int:
    try:
        return args.func(args)
    except (TraceParseError, InvalidSequenceError, InvalidParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapacityExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE


def run() -> None:
    raise SystemExit(main())
