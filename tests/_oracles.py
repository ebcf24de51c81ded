"""Independent brute-force references used to cross-check the library.

Everything here recomputes from scratch with a different method than the
package: per-prefix set scans instead of incremental state, exhaustive
subsequence search instead of dynamic programming.  Slow on purpose; keep
inputs small.
"""

import argparse
import csv
import io
import os
import sys
from itertools import chain, combinations, permutations
from random import Random

from reorderlab import (
    CapacityExceededError,
    InvalidSequenceError,
    RcvWindowSeries,
    ReconstructionTrace,
    buffer_sizes,
)
from reorderlab.buffering import receiver_pass
from reorderlab.cli import (
    TraceParseError,
    _dt_value,
    cmd_ack,
    cmd_consistency,
    cmd_episodes,
    cmd_equiv,
    cmd_map,
    cmd_rcvwindow,
    cmd_rd,
    cmd_reconstruct,
    cmd_sus,
    cmd_verify,
)
from reorderlab.oracle import MAX_IDENTITY_N


def oracle_check_ids(ids):
    """Packet-ID validation by one loop over every ID: ``check_ids`` without its pre-check."""
    out = tuple(ids)
    seen = set()
    for pos, v in enumerate(out, start=1):
        if isinstance(v, bool) or not isinstance(v, int) or v <= 0:
            raise InvalidSequenceError(
                f"packet ID at position {pos} must be a positive integer, got {v!r}",
                position=pos,
            )
        if v in seen:
            raise InvalidSequenceError(f"duplicate packet ID {v} at position {pos}", position=pos)
        seen.add(v)
    return out


class OracleReceiverState:
    """``ReceiverState`` as one ``observe`` loop that keeps every ID it received."""

    def __init__(self):
        self.highest_seen = 0
        self.uploadable = 0
        self.received = set()
        self.arrivals = 0

    @property
    def buffer_size(self):
        return self.highest_seen - self.uploadable

    @property
    def next_ack(self):
        return self.uploadable + 1

    def observe(self, packet_id):
        pos = self.arrivals + 1
        if isinstance(packet_id, bool) or not isinstance(packet_id, int) or packet_id <= 0:
            raise InvalidSequenceError(
                f"packet ID at position {pos} must be a positive integer, got {packet_id!r}",
                position=pos,
            )
        if packet_id in self.received:
            raise InvalidSequenceError(
                f"duplicate packet ID {packet_id} at position {pos}", position=pos
            )
        self.received.add(packet_id)
        self.arrivals = pos
        if packet_id > self.highest_seen:
            self.highest_seen = packet_id
        while self.uploadable + 1 in self.received:
            self.uploadable += 1
        return self.buffer_size


def oracle_shown(token):
    """A rejected token as the readers echo it: whole, or its first 40 characters."""
    if len(token) > 40:
        return repr(token[:40]) + "... (" + str(len(token)) + " characters)"
    return repr(token)


def oracle_parse_trace(text, source):
    """``parse_trace`` as a loop over every line and token, ``int`` per token."""
    values = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        for token in raw.split("#", 1)[0].split():
            try:
                values.append(int(token))
            except ValueError:
                raise TraceParseError(
                    f"{source}:{lineno}: not an integer: {oracle_shown(token)}"
                ) from None
    return values


def oracle_resolve_trace(tokens):
    """``resolve_trace`` as a loop over every piece of every token, ``int`` per piece."""
    if len(tokens) == 1 and tokens[0] == "-":
        return oracle_parse_trace(sys.stdin.read(), "<stdin>")
    values = []
    for token in tokens:
        for piece in token.split():
            try:
                values.append(int(piece))
            except ValueError:
                if len(tokens) == 1 and os.path.exists(token):
                    try:
                        with open(token, encoding="utf-8") as fh:
                            return oracle_parse_trace(fh.read(), token)
                    except (OSError, UnicodeDecodeError) as exc:
                        raise TraceParseError(f"cannot read {token}: {exc}") from None
                raise TraceParseError(
                    f"not a readable trace file and not an integer: {oracle_shown(piece)}"
                ) from None
    return values


def oracle_check_permutation(ids):
    """Permutation validation by one loop over every ID: ``check_permutation`` without its pre-check."""
    out = oracle_check_ids(ids)
    n = len(out)
    for pos, v in enumerate(out, start=1):
        if v > n:
            raise InvalidSequenceError(
                f"not a permutation of 1..{n}: ID {v} at position {pos}",
                position=pos,
            )
    return out


def oracle_check_buffer_values(values):
    """Buffer-series validation by one loop over every value: ``check_buffer_values`` without its pre-check."""
    out = tuple(values)
    for pos, v in enumerate(out, start=1):
        if isinstance(v, bool) or not isinstance(v, int) or v < 0:
            raise InvalidSequenceError(
                f"buffer size at position {pos} must be a non-negative integer, got {v!r}",
                position=pos,
            )
    return out


def oracle_m(ids):
    """Buffer sizes via whole-prefix recomputation."""
    out = []
    for i in range(1, len(ids) + 1):
        prefix = set(ids[:i])
        highest = max(prefix)
        upload = 0
        while upload + 1 in prefix:
            upload += 1
        out.append(highest - upload)
    return tuple(out)


def oracle_ack(ids):
    """ACK values via whole-prefix recomputation."""
    out = []
    for i in range(1, len(ids) + 1):
        prefix = set(ids[:i])
        upload = 0
        while upload + 1 in prefix:
            upload += 1
        out.append(upload + 1)
    return tuple(out)


def oracle_equivalences(a, b):
    """``(fb, behavioral)`` from two full receiver passes, compared after both end."""
    (sizes_a, uploads_a), (sizes_b, uploads_b) = receiver_pass(a), receiver_pass(b)
    return sizes_a == sizes_b, uploads_a == uploads_b


def oracle_classes(n):
    """Buffer classes of S_n keyed by one ``buffer_sizes`` pass per permutation.

    ``enumerate_classes(n).classes`` without the received-set table, in the
    same key order.
    """
    classes = {}
    for perm in permutations(range(1, n + 1)):
        classes.setdefault(buffer_sizes(perm), []).append(perm)
    return {key: tuple(members) for key, members in classes.items()}


def oracle_consistency_counterexample(metric, n):
    """First buffer-equivalent pair the metric tells apart, keyed by ``buffer_sizes``.

    ``consistency_counterexample`` without the received-set table.
    """
    seen = {}
    for perm in permutations(range(1, n + 1)):
        key = buffer_sizes(perm)
        value = metric(perm)
        for earlier, earlier_value in seen.get(key, ()):
            if earlier_value != value:
                return earlier, perm
        seen.setdefault(key, []).append((perm, value))
    return None


def oracle_episodes(ids):
    """Episodes as (state, start, end) from per-position states of ``oracle_m``."""
    episodes = []
    prev = 0
    for pos, m in enumerate(oracle_m(ids), start=1):
        state = "O" if m == 0 and prev == 0 else "U"
        if episodes and episodes[-1][0] == state:
            episodes[-1] = (state, episodes[-1][1], pos)
        else:
            episodes.append((state, pos, pos))
        prev = m
    return episodes


def oracle_first_fit(ids):
    """Greedy ascending lists by scanning every list in order for each element."""
    lists = []
    for p in ids:
        for lst in lists:
            if lst[-1] < p:
                lst.append(p)
                break
        else:
            lists.append([p])
    return tuple(tuple(lst) for lst in lists)


def oracle_lds_exhaustive(seq):
    """Longest strictly decreasing subsequence by trying all subsequences."""
    n = len(seq)
    for size in range(n, 0, -1):
        for idx in combinations(range(n), size):
            vals = [seq[i] for i in idx]
            if all(a > b for a, b in zip(vals, vals[1:])):
                return size
    return 0


def oracle_rd_counts(perm, dt):
    """Displacement counts as a plain dict, plus the total."""
    counts: dict[int, int] = {}
    for i, v in enumerate(perm, start=1):
        d = v - i
        if -dt <= d <= dt:
            counts[d] = counts.get(d, 0) + 1
    return counts, len(perm)


def oracle_rcv_window(occupancy, rcv_buffer):
    """Advertised-window series by one loop that checks capacity at every position."""
    for pos, m in enumerate(occupancy, start=1):
        if m > rcv_buffer:
            raise CapacityExceededError(
                f"buffer occupancy {m} exceeds capacity {rcv_buffer} at position {pos}",
                position=pos,
            )
    return RcvWindowSeries(rcv_buffer=rcv_buffer, values=tuple(rcv_buffer - m for m in occupancy))


def oracle_reconstruct_trace(w):
    """Reconstruction that keeps its own running ACK instead of ``ack_from_buffer``.

    Phase 1 keeps the ACK alongside the walk: a shrink pins the previous ACK
    and advances it by the shrink amount, a flat zero step advances it by
    one.  Phase 2 scans upward for the next unused ID instead of drawing from
    one iterator.  The candidate is verified with ``oracle_m`` and
    ``oracle_first_fit``.
    """
    w = tuple(w)
    n = len(w)
    packets = [None] * n
    acks = []
    phase1 = []
    phase2 = []
    ack = 1
    prev = 0
    for i, wi in enumerate(w):
        if wi < prev:
            packets[i] = ack
            ack += prev - wi
            phase1.append(i + 1)
        elif wi > prev:
            packets[i] = ack + wi - 1
            phase1.append(i + 1)
        else:
            phase2.append(i + 1)
            if wi == 0:
                ack += 1
        acks.append(ack)
        prev = wi
    used = {p for p in packets if p is not None}
    next_free = 1
    for pos in phase2:
        while next_free in used:
            next_free += 1
        packets[pos - 1] = next_free
        used.add(next_free)
    candidate = tuple(packets)
    feasible = (
        sorted(candidate) == list(range(1, n + 1))
        and oracle_m(candidate) == w
        and len(oracle_first_fit(candidate)) <= 3
    )
    return ReconstructionTrace(
        buffer_values=w,
        packets=candidate,
        acks=tuple(acks),
        phase1_positions=frozenset(phase1),
        phase2_positions=frozenset(phase2),
        permutation=candidate if feasible else None,
    )


def interleave_runs(n: int, parts: int, rng: Random) -> tuple[int, ...]:
    """Random permutation of 1..n that splits into at most ``parts`` ascending runs.

    Values are dealt to ``parts`` buckets in increasing order, so each bucket
    is ascending; a random interleaving keeps every bucket a subsequence of
    the result.
    """
    runs: list[list[int]] = [[] for _ in range(parts)]
    for v in range(1, n + 1):
        runs[rng.randrange(parts)].append(v)
    runs = [r for r in runs if r]
    out: list[int] = []
    while runs:
        i = rng.randrange(len(runs))
        out.append(runs[i].pop(0))
        if not runs[i]:
            runs.pop(i)
    return tuple(out)


# The CLI's text and csv output as written before integer blocks were
# formatted by one ``%``: text joins ``str`` of every value and item, csv is
# ``csv.writer`` over a header and rows.  Each ``oracle_*_views`` takes one
# command's library result and returns (text lines, csv header, csv rows,
# exit code); ``oracle_render`` writes one format of them.


def _old_words(*items):
    return " ".join(map(str, items))


def _old_flag(value):
    return "true" if value else "false"


def _old_pairs(lines):
    return [line.split(" ", 1) for line in lines]


def _old_witness_lines(witness):
    labels = ("witness-a", "witness-b")
    return [_old_words(label, *perm) for label, perm in zip(labels, witness or ())]


def oracle_series_views(values):
    """``map``, ``ack`` and ``rcvwindow``."""
    return list(values), ("position", "value"), list(enumerate(values, start=1)), 0


def oracle_sus_views(part):
    text = [f"sus {part.sus}"] + [_old_words("list", *lst) for lst in part.lists]
    rows = [(i, v) for i, lst in enumerate(part.lists, start=1) for v in lst]
    return text, ("list", "id"), rows, 0


def oracle_episodes_views(ids, seg):
    text = [f"episode {ep.state} {ep.start} {ep.end}" for ep in seg.episodes]
    text.append(_old_words("pivots", *sorted(seg.pivots)))
    text.append(_old_words("pivot-packets", *sorted(seg.pivot_packets)))
    rows = [
        (pos, v, seg.state_at(pos), int(pos in seg.pivots)) for pos, v in enumerate(ids, start=1)
    ]
    return text, ("position", "id", "state", "pivot"), rows, 0


def oracle_rd_views(dist):
    counts = sorted(dist.counts.items())
    text = [f"{d} {c}/{dist.total}" for d, c in counts]
    rows = [(d, c, dist.total) for d, c in counts]
    return text, ("displacement", "count", "total"), rows, 0


def oracle_equiv_views(fb, beh):
    lines = [f"fb-equivalent {_old_flag(fb)}", f"behaviorally-equivalent {_old_flag(beh)}"]
    return lines, ("predicate", "value"), _old_pairs(lines), 0 if fb else 1


def oracle_reconstruct_views(perm):
    text = ["NO PERMUTATION EXISTS"] if perm is None else [_old_words(*perm)]
    rows = list(enumerate(perm or (), start=1))
    return text, ("position", "id"), rows, 1 if perm is None else 0


def oracle_verify_views(n, theorem_witness, identities_witness):
    """``verify --n n`` given what the two engines returned (no identities above the cap)."""
    skipped = n > MAX_IDENTITY_N
    if skipped:
        identities_witness = None
    text = ["theorem " + ("pass" if theorem_witness is None else "fail")]
    text += _old_witness_lines(theorem_witness)
    identities = "skipped" if skipped else "pass" if identities_witness is None else "fail"
    text.append(f"identities {identities}")
    if identities_witness is not None:
        text.append(_old_words("witness", *identities_witness.permutation))
        text.append(f"check {identities_witness.check}")
    ok = theorem_witness is None and identities_witness is None
    return text, ("check", "result"), _old_pairs(text), 0 if ok else 1


def oracle_consistency_views(witness):
    lines = _old_witness_lines(witness)
    text = ["consistent" if witness is None else "inconsistent"] + lines
    rows = [("consistent", _old_flag(witness is None))] + _old_pairs(lines)
    return text, ("field", "value"), rows, 0 if witness is None else 1


def oracle_render(views, fmt):
    """(exit code, stdout) of one format, ``text`` or ``csv``, of a command's views."""
    text, header, rows, code = views
    if fmt == "text":
        return code, "\n".join(chain(map(str, text), [""]))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return code, out.getvalue()


def oracle_build_parser() -> argparse.ArgumentParser:
    """``cli.build_parser`` before the command table: a ``--format`` parent and a closure."""
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
