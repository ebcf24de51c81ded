"""Exhaustive small-length verification of the package's structural claims.

Everything here enumerates entire permutation groups, so lengths are capped
to keep runs at desk scale.  All results are deterministic: enumeration is
lexicographic and the first witness found is the one reported.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate, permutations, repeat
from operator import add, getitem, or_
from typing import Callable, NamedTuple

# buffer_sizes is unused here; perfbench wraps and checks every module's binding of it
from .buffering import ack_from_buffer, buffer_sizes, receiver_pass
from .disorder import lds_bruteforce, sus
from .errors import InvalidParameterError
from .reconstruct import MAX_SUS, _candidate

MAX_ENUMERATION_N = 9
MAX_IDENTITY_N = 7


def _check_n(n: int, limit: int) -> None:
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= limit:
        raise InvalidParameterError(f"n must be an integer in 1..{limit}, got {n!r}")


def _series_of(n: int) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """Buffer series of permutations of 1..n, read from a table of received sets.

    The receiver's state after a prefix depends only on the set of IDs in
    it, so ``table[mask]`` is the buffer size once the members of ``mask``
    have arrived in any order: the highest ID, ``mask.bit_length()``, minus
    the length of the run 1, 2, 3, ... in ``mask``, its count of trailing
    ones.  No kernel runs.  A permutation's series is the table read at the
    running OR of its IDs' bits.
    """
    table = [m.bit_length() - (m ^ (m + 1)).bit_length() + 1 for m in range(1 << n)]
    bit = [0] + [1 << (v - 1) for v in range(1, n + 1)]
    lookup, flag = table.__getitem__, bit.__getitem__

    def series(perm: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(map(lookup, accumulate(map(flag, perm), or_)))

    return series


def _sus_of(n: int) -> Callable[[tuple[int, ...]], int]:
    """SUS of permutations of 1..n, read from a table of patience states.

    The greedy partition's state after a prefix is the set of its list
    tails: an arrival v replaces the largest tail below v, or opens a new
    list when no tail is below it.  So there is one node per tail set
    ``mask``: ``node[0]`` is the number of tails, and ``node[v]`` is the
    node that v leads to.  A permutation's SUS is the tail count at the
    node its IDs lead to from the empty set.
    """
    nodes = [[mask.bit_count()] for mask in range(1 << n)]
    for mask, node in enumerate(nodes):
        for v in range(1, n + 1):
            bit = 1 << (v - 1)
            largest_below = 1 << (mask & (bit - 1)).bit_length() >> 1  # 0 if none
            node.append(nodes[(mask ^ largest_below) | bit])
    root = nodes[0]

    def count(perm: tuple[int, ...]) -> int:
        return reduce(getitem, perm, root)[0]

    return count


class EquivalenceClassReport(NamedTuple):
    """Grouping of all length-n permutations by their buffer series.

    ``classes`` maps each buffer series to its members in lexicographic
    order.  ``sus3_collision_count`` counts classes holding two or more
    members of SUS at most 3; uniqueness of mildly-disordered preimages
    means it must be zero.
    """

    n: int
    classes: dict[tuple[int, ...], tuple[tuple[int, ...], ...]]
    class_count: int
    max_class_size: int
    multi_member_count: int
    sus3_collision_count: int


class IdentityViolation(NamedTuple):
    """First permutation on which a cross-check failed, and which check."""

    permutation: tuple[int, ...]
    check: str


def enumerate_classes(n: int) -> EquivalenceClassReport:
    """Group S_n by buffer series, with summary statistics."""
    _check_n(n, MAX_ENUMERATION_N)
    series = _series_of(n)
    classes: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for perm in permutations(range(1, n + 1)):
        classes.setdefault(series(perm), []).append(perm)
    frozen = {key: tuple(members) for key, members in classes.items()}
    sizes = [len(members) for members in frozen.values()]
    count = _sus_of(n)
    collisions = sum(
        1
        for members in frozen.values()
        if len(members) >= 2 and sum(1 for p in members if count(p) <= MAX_SUS) >= 2
    )
    return EquivalenceClassReport(
        n=n,
        classes=frozen,
        class_count=len(frozen),
        max_class_size=max(sizes),
        multi_member_count=sum(1 for s in sizes if s >= 2),
        sus3_collision_count=collisions,
    )


def verify_theorem(n: int) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Check that no two distinct SUS<=3 permutations share a buffer series.

    Returns None when uniqueness holds on all of S_n, otherwise the first
    colliding pair found in lexicographic order (which would indicate an
    implementation bug, not a counterexample to the underlying claim).
    """
    _check_n(n, MAX_ENUMERATION_N)
    series = _series_of(n)
    count = _sus_of(n)
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    for perm in permutations(range(1, n + 1)):
        # the patience table filters, and sus cross-checks its SUS<=3 members:
        # perfbench counts these calls, each returning <=3, against A005802(n)
        if count(perm) > MAX_SUS or sus(perm) > MAX_SUS:
            continue
        key = series(perm)
        if key in seen:
            return seen[key], perm
        seen[key] = perm
    return None


def verify_identities(n: int) -> IdentityViolation | None:
    """Exhaustively cross-check the structural identities on S_n.

    Per permutation, from one receiver pass: the highest ID seen equals the
    upload point (ACK minus one) plus the buffer size at every step; greedy
    SUS equals brute-force LDS; the ACK series is recoverable from the
    buffer series alone; and SUS<=3 permutations round-trip through
    reconstruction.  Returns None, or the first violation.

    The round trip runs reconstruction's unverified builder, ``_candidate``.
    A candidate equal to the permutation is a permutation whose series is
    ``m`` and whose SUS is at most 3, so ``reconstruct(m)`` returns it; any
    other candidate makes ``reconstruct(m)`` return None or that candidate.
    So the test is the same as ``reconstruct(m) != perm``.
    """
    _check_n(n, MAX_IDENTITY_N)
    for perm in permutations(range(1, n + 1)):
        m, uploads = receiver_pass(perm)
        if list(accumulate(perm, max)) != list(map(add, uploads, m)):
            return IdentityViolation(perm, "highest-vs-ack")
        u = sus(perm)
        if u != lds_bruteforce(perm):
            return IdentityViolation(perm, "sus-vs-lds")
        acks = ack_from_buffer(m)
        if acks != tuple(map(add, uploads, repeat(1))):
            return IdentityViolation(perm, "ack-from-buffer")
        if u <= MAX_SUS and _candidate(m, acks)[0] != perm:
            return IdentityViolation(perm, "reconstruct-round-trip")
    return None
