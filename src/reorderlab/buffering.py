"""Receiver-side buffer dynamics over sequences of packet IDs.

A receiver tracks two counters while packets arrive: the highest ID seen so
far and the highest ID up to which the stream is complete (everything at or
below it can be handed to the application).  Their difference is the minimal
buffer needed to park out-of-order packets, with space reserved for IDs that
have not arrived yet.  This module derives that buffer time series, the
cumulative-ACK series, equivalence predicates built on them, and the
ordered/unordered episode structure of a trace.

Packet IDs are positive and distinct; gaps are allowed (lost packets), so an
ID sequence need not be a permutation of 1..n.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import suppress
from itertools import chain, compress, count, repeat
from operator import add, attrgetter, ne
from typing import Iterable, NamedTuple, Sequence

from .errors import InvalidSequenceError

ORDERED = "O"
UNORDERED = "U"


def _rejected(pos: int, v: object) -> InvalidSequenceError:
    if isinstance(v, bool) or not isinstance(v, int) or v <= 0:
        message = f"packet ID at position {pos} must be a positive integer, got {v!r}"
    else:
        message = f"duplicate packet ID {v} at position {pos}"
    return InvalidSequenceError(message, position=pos)


def check_ids(ids: Iterable[int]) -> tuple[int, ...]:
    """Validate a packet-ID sequence: positive integers, no repeats.

    A C-speed pre-check passes valid input; anything else goes to the
    receiver kernel, ``receiver_pass``, which names the first bad ID and its
    position.
    """
    out = tuple(ids)
    if set(map(type, out)) <= {int} and (not out or min(out) > 0) and len(set(out)) == len(out):
        return out
    receiver_pass(out)  # called to raise; valid IDs of an int subclass pass through it
    return out


def check_permutation(ids: Iterable[int]) -> tuple[int, ...]:
    """Validate that ``ids`` is a permutation of 1..n.

    Distinct positive IDs form a permutation of 1..n exactly when none
    exceeds n; the scan runs only to name the first one that does.
    """
    out = check_ids(ids)
    n = len(out)
    if out and max(out) > n:
        pos, v = next((pos, v) for pos, v in enumerate(out, start=1) if v > n)
        message = f"not a permutation of 1..{n}: ID {v} at position {pos}"
        raise InvalidSequenceError(message, position=pos)
    return out


def check_buffer_values(values: Iterable[int]) -> tuple[int, ...]:
    """Validate a buffer-size series: non-negative integers.

    As in ``check_ids``, a C-speed pre-check passes valid input and the loop
    runs only to name the first bad value and its position.
    """
    out = tuple(values)
    if set(map(type, out)) <= {int} and (not out or min(out) >= 0):
        return out
    for pos, v in enumerate(out, start=1):
        if isinstance(v, bool) or not isinstance(v, int) or v < 0:
            raise InvalidSequenceError(
                f"buffer size at position {pos} must be a non-negative integer, got {v!r}",
                position=pos,
            )
    return out


class ReceiverState:
    """The receiver over a stream of packet IDs, fed in any number of calls.

    ``highest_seen`` is the largest ID observed so far and ``uploadable`` the
    largest ID below which the stream is complete; both start at 0.  The
    buffer size after an arrival is their difference, and ``next_ack`` is the
    cumulative acknowledgment the receiver would emit.  Only the received IDs
    above the upload point are kept, in ``pending``.
    """

    __slots__ = ("highest_seen", "uploadable", "pending", "arrivals")

    def __init__(self) -> None:
        self.highest_seen = self.uploadable = self.arrivals = 0
        self.pending: set[int] = set()

    @property
    def received(self) -> set[int]:
        """Every ID received so far."""
        return set(range(1, self.uploadable + 1)) | self.pending

    @property
    def buffer_size(self) -> int:
        return self.highest_seen - self.uploadable

    @property
    def next_ack(self) -> int:
        return self.uploadable + 1

    def observe(self, packet_id: int) -> int:
        """Record one arrival and return the resulting buffer size."""
        return self.feed((packet_id,))[0][0]

    def feed(self, ids: Iterable[int]) -> tuple[list[int], list[int]]:
        """Record arrivals; return the buffer size and upload point after each.

        The upload point is the ACK minus one.  IDs are checked as they
        arrive, with ``check_ids``' messages and 1-based positions counted
        across calls; on a bad ID the state holds the arrivals before it.

        Nothing is buffered exactly when ``highest_seen == uploadable``: the
        highest ID seen is in ``pending`` whenever it lies above the upload
        point.  Then the ID ``highest_seen + 1``, which can be neither a
        repeat nor below 1, takes one branch that moves both counters to it.

        A bad ID is refused for its type, or else by the one branch for IDs
        at or below the upload point or pending.  No repeat reaches the branch
        before it, which advances the upload point to ``uploadable + 1``:
        that ID is never pending, or the upload point would be past it.
        """
        highest, uploadable, pending = self.highest_seen, self.uploadable, self.pending
        sizes: list[int] = []
        uploads: list[int] = []
        add_size, add_upload = sizes.append, uploads.append
        try:
            for v in ids:
                # on a bad ID, self.arrivals + len(sizes) + 1 is its 1-based position
                if type(v) is not int and (isinstance(v, bool) or not isinstance(v, int)):
                    raise _rejected(self.arrivals + len(sizes) + 1, v)
                if highest == uploadable and v == highest + 1:
                    # nothing buffered and the next ID: the common case of an almost sorted trace
                    highest = uploadable = v
                    add_size(0)
                    add_upload(v)
                    continue
                if v == uploadable + 1:
                    # something is buffered, or the branch above took v, so highest > v
                    uploadable = v
                    while uploadable + 1 in pending:
                        uploadable += 1
                        pending.remove(uploadable)
                elif v <= uploadable or v in pending:
                    raise _rejected(self.arrivals + len(sizes) + 1, v)
                else:
                    pending.add(v)
                    if v > highest:
                        highest = v
                add_size(highest - uploadable)
                add_upload(uploadable)
        finally:
            self.highest_seen, self.uploadable = highest, uploadable
            self.arrivals += len(sizes)
        return sizes, uploads


def receiver_pass(ids: Iterable[int]) -> tuple[list[int], list[int]]:
    """Validate a trace and run a fresh receiver over it: ``ReceiverState().feed``."""
    return ReceiverState().feed(ids)


def buffer_sizes(ids: Iterable[int]) -> tuple[int, ...]:
    """Minimal out-of-order buffer size after each arrival of a trace."""
    return tuple(receiver_pass(ids)[0])


def ack_sequence(ids: Iterable[int]) -> tuple[int, ...]:
    """Cumulative acknowledgment after each arrival: first ID not yet received."""
    return tuple(map(add, receiver_pass(ids)[1], repeat(1)))


def _equivalences(a: Sequence[int], b: Sequence[int]) -> tuple[bool, bool]:
    """Whether two traces have equal buffer series and equal ACK series.

    Two receivers are fed the same slices of the traces, each twice as long
    as the last, and stop once the ACK series differ, when both answers are
    False; the rest of each trace is then only validated.  Errors are those
    of ``receiver_pass(a)`` followed by ``receiver_pass(b)``.  The traces are
    sliced, not copied.
    """
    n = len(a)
    fb = behavioral = n == len(b)
    state_a, state_b = ReceiverState(), ReceiverState()
    start = 0
    with suppress(InvalidSequenceError):  # raised again below, after any earlier error in a
        # equal buffer series give equal ACK series (ack_from_buffer): fb implies behavioral
        while start < n and behavioral:
            end = 2 * start + 1
            sizes_a, uploads_a = state_a.feed(a[start:end])
            sizes_b, uploads_b = state_b.feed(b[start:end])
            fb = fb and sizes_a == sizes_b
            behavioral = uploads_a == uploads_b
            start = end
    if start < max(n, len(b)):  # the receivers stopped before the end of a trace
        check_ids(a)
        check_ids(b)
    return fb, behavioral


def fb_equivalent(a: Iterable[int], b: Iterable[int]) -> bool:
    """True when two traces produce identical buffer-size series.

    Both traces are validated in full, ``a`` first, but the receivers stop
    once the buffer and the ACK series are both known to differ.
    """
    return _equivalences(tuple(a), tuple(b))[0]


def behaviorally_equivalent(a: Iterable[int], b: Iterable[int]) -> bool:
    """True when two traces produce identical ACK series.

    Both traces are validated in full, ``a`` first, but the receivers stop
    once the buffer and the ACK series are both known to differ.
    """
    return _equivalences(tuple(a), tuple(b))[1]


def ack_from_buffer(values: Sequence[int]) -> tuple[int, ...]:
    """Derive the ACK series from a buffer-size series alone.

    The buffer can only move in ways that pin the ACK: a shrink by k means
    the k next-expected IDs became uploadable, a flat zero step is an
    in-order arrival, and anything else leaves the ACK untouched.  The series
    is preceded by an implicit 0 and the ACK starts at 1.  Feasibility of the
    input is not checked.
    """
    ack = 1
    prev = 0
    out = []
    for w in values:
        if w < prev:
            ack += prev - w
        elif w == 0 and prev == 0:
            ack += 1
        out.append(ack)
        prev = w
    return tuple(out)


class Episode(NamedTuple):
    state: str  # ORDERED or UNORDERED
    start: int  # 1-based, inclusive
    end: int


class EpisodeSegmentation(NamedTuple):
    """Ordered/unordered episodes of a trace plus its pivot arrivals.

    Taken in arrival order, both pivot sets ascend: the positions trivially,
    and the packets because the upload point only rises and the packet that
    moves it is the ID just above it.
    """

    episodes: tuple[Episode, ...]
    pivots: frozenset[int]  # 1-based positions where the upload point advanced
    pivot_packets: frozenset[int]  # IDs of the packets at those positions

    def state_at(self, position: int) -> str:
        """Episode state covering a 1-based position."""
        i = bisect_left(self.episodes, position, key=attrgetter("end"))
        if i < len(self.episodes) and self.episodes[i].start <= position:
            return self.episodes[i].state
        raise IndexError(f"position {position} outside the segmented trace")


def _episode_pass(
    ids: Sequence[int],
) -> tuple[tuple[list[str], list[int], list[int]], list[int], list[int]]:
    """Episodes as (states, starts, ends) columns, then pivots and pivot packets, ascending.

    One receiver pass; ``segment_episodes`` wraps the result.
    """
    sizes, uploads = receiver_pass(ids)
    n = len(sizes)
    # busy's bytes are 1 where the buffer is non-empty after an arrival; ORed
    # with itself shifted one byte, unordered[i] is 1 when it is non-empty
    # before or after arrival i + 1, and an episode is a run of equal flags
    busy = int.from_bytes(bytes(map(bool, sizes)), "big")
    unordered = (busy | busy >> 8).to_bytes(n, "big")
    states: list[str] = []
    starts: list[int] = []
    ends: list[int] = []
    start = 0
    while start < n:
        flag = unordered[start]
        end = unordered.find(flag ^ 1, start)  # the run's end: the first other flag
        end = n if end < 0 else end
        states.append(UNORDERED if flag else ORDERED)
        starts.append(start + 1)
        ends.append(end)
        start = end
    advanced = list(map(ne, uploads, chain((0,), uploads)))
    return (states, starts, ends), list(compress(count(1), advanced)), list(compress(ids, advanced))


def _segmentation(
    columns: tuple[list[str], list[int], list[int]], pivots: list[int], packets: list[int]
) -> EpisodeSegmentation:
    """An ``EpisodeSegmentation`` from ``_episode_pass``' result."""
    return EpisodeSegmentation(tuple(map(Episode, *columns)), frozenset(pivots), frozenset(packets))


def segment_episodes(ids: Iterable[int]) -> EpisodeSegmentation:
    """Split a trace into ordered/unordered episodes and find its pivots.

    A position is ordered when the buffer is empty both before and after the
    arrival; runs of equal state merge into one episode.  A pivot is an
    arrival that advances the upload point, which includes every in-order
    packet and every packet that flushes a buffered run.  That packet is the
    ID just above the upload point, which never falls back, so pivot packets
    rise in arrival order, as pivot positions do.
    """
    return _segmentation(*_episode_pass(tuple(ids)))
