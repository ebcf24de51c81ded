"""Rebuild the mildly-disordered preimage of a buffer-size series.

A buffer series pins down most of its source trace: a growth step names the
new highest ID, a shrink step names the long-missing packet that finally
arrived and advanced the ACK, and the remaining flat steps can only take the
smallest IDs not otherwise spoken for.  A permutation's series rebuilds to it
with its flat-step IDs sorted, which is itself exactly when its SUS is at most
3 (proof in the README).  This module rebuilds it or reports that none exists.
"""

from __future__ import annotations

from itertools import count, filterfalse
from typing import Iterable, NamedTuple, Sequence

from .buffering import ack_from_buffer, buffer_sizes, check_buffer_values

MAX_SUS = 3


class ReconstructionTrace(NamedTuple):
    """Full record of one reconstruction run, successful or not."""

    buffer_values: tuple[int, ...]
    packets: tuple[int, ...]  # candidate IDs, one per position
    acks: tuple[int, ...]  # ACK series rebuilt alongside
    phase1_positions: frozenset[int]  # pinned by a buffer change (1-based)
    phase2_positions: frozenset[int]  # filled with smallest unused IDs
    permutation: tuple[int, ...] | None  # verified result, None if infeasible


def _candidate(
    w: Sequence[int], acks: Sequence[int]
) -> tuple[tuple[int, ...], list[int], list[int]]:
    """Phases 1 and 2 on a valid series and its ACKs, without verification.

    Returns the candidate and the phase-1 and phase-2 positions (1-based).
    """
    packets = [0] * len(w)  # phase 2 fills the zeros
    phase1: list[int] = []
    phase2: list[int] = []
    # the series starts from an implicit 0 with the ACK at 1
    for pos, prev, wi, ack in zip(count(1), (0, *w), w, (1, *acks)):
        if wi == prev:
            phase2.append(pos)
        else:
            packets[pos - 1] = ack if wi < prev else ack + wi - 1
            phase1.append(pos)

    pinned = set(packets)  # phase 1's IDs, and 0, which count(1) never yields
    for pos, packet in zip(phase2, filterfalse(pinned.__contains__, count(1))):
        packets[pos - 1] = packet
    return tuple(packets), phase1, phase2


def reconstruct_trace(values: Iterable[int]) -> ReconstructionTrace:
    """Run the two assignment phases and verify the candidate.

    Phase 1 reads the ACK series from ``ack_from_buffer`` and pins every
    step that moves the buffer to the ACK before it: a shrink is the arrival
    of that ACK, and growth to size w is the new highest ID, ACK + w - 1.
    Phase 2 fills every flat step, left to right, with the smallest positive
    ID not used anywhere yet.

    The candidate stands when it is a permutation of 1..n whose buffer series
    is the input; it then rebuilds from its own series, so its SUS is at most
    MAX_SUS, as the README proves.  Otherwise ``permutation`` is None, and no
    permutation has the series: the candidate from a permutation's series stands.
    """
    w = check_buffer_values(values)
    acks = ack_from_buffer(w)
    candidate, phase1, phase2 = _candidate(w, acks)
    permutation = None
    if sorted(candidate) == list(range(1, len(w) + 1)) and buffer_sizes(candidate) == w:
        permutation = candidate
    return ReconstructionTrace(
        buffer_values=w,
        packets=candidate,
        acks=acks,
        phase1_positions=frozenset(phase1),
        phase2_positions=frozenset(phase2),
        permutation=permutation,
    )


def reconstruct(values: Iterable[int]) -> tuple[int, ...] | None:
    """The unique SUS<=3 permutation with series ``values``, or None: no permutation has it."""
    return reconstruct_trace(values).permutation
