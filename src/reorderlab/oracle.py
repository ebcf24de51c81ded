"""Exhaustive small-length verification of the package's structural claims.

Everything here enumerates entire permutation groups, so lengths are capped
to keep runs at desk scale.  All results are deterministic: enumeration is
lexicographic and the first witness found is the one reported.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from itertools import accumulate, permutations, repeat
from operator import add, getitem, or_
from typing import Iterator, NamedTuple

# buffer_sizes is unused here; perfbench wraps and checks every module's binding of it
from .buffering import ack_from_buffer, buffer_sizes, receiver_pass
from .disorder import lds_bruteforce, sus
from .errors import InvalidParameterError
from .reconstruct import MAX_SUS, _candidate

MAX_ENUMERATION_N = 9
MAX_IDENTITY_N = 7


def _received_sets(n: int) -> list[int]:
    """Buffer size after the IDs in ``mask``: the highest less the length of the run 1, 2, 3, ..."""
    return [m.bit_length() - (m ^ (m + 1)).bit_length() + 1 for m in range(1 << n)]


def _patience_nodes(n: int) -> list[list]:
    """States of the greedy SUS partition of IDs 1..n, one per set ``mask`` of list tails.

    An arrival v replaces the largest tail below it or opens a new list.  ``node[0]``
    counts the tails, ``node[v]`` is the node v leads to, and ``nodes[0]`` is the root.
    """
    nodes = [[mask.bit_count()] for mask in range(1 << n)]
    for mask, node in enumerate(nodes):
        for bit in (1 << v for v in range(n)):
            below = 1 << (mask & (bit - 1)).bit_length() >> 1  # the largest tail below, or 0
            node.append(nodes[mask ^ below | bit])
    return nodes


def _sweep(
    n: int, limit: int = MAX_ENUMERATION_N
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """Every permutation of 1..n in lexicographic order, with its buffer series and SUS.

    Each is a head of n // 2 IDs, in ``permutations(ids, n // 2)``'s order, then each of
    its tails in order.  A tail's series steps depend only on its head's set, so the tails
    and their steps are built once per set.  The SUS is ``node[0]`` at the
    ``_patience_nodes`` node the IDs lead to from the root, so the tails' SUS are counted
    once per node the head reaches and set of head IDs.  The first step raises
    ``InvalidParameterError`` unless n is an integer in 1..limit, before either table
    (2^n entries) is built: this is the one length cap of the engines.
    """
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= limit:
        raise InvalidParameterError(f"n must be an integer in 1..{limit}, got {n!r}")
    lookup, flag = _received_sets(n).__getitem__, [0, *(1 << v for v in range(n))].__getitem__

    def series(perm: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(map(lookup, accumulate(map(flag, perm), or_)))

    ids, root, tails_of, counts_of = range(1, n + 1), _patience_nodes(n)[0], {}, {}
    for head in permutations(ids, n // 2):
        if (received := frozenset(head)) not in tails_of:
            tails = list(permutations(v for v in ids if v not in received))
            tails_of[received] = tails, [series(head + tail)[n // 2 :] for tail in tails]
        tails, steps = tails_of[received]
        node = reduce(getitem, head, root)
        # every node lives as long as the root, so its id names it
        if (key := (id(node), received)) not in counts_of:
            counts_of[key] = [reduce(getitem, tail, node)[0] for tail in tails]
        yield from zip(
            map(add, repeat(head), tails), map(add, repeat(series(head)), steps), counts_of[key]
        )


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
    classes: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    low: list[tuple[int, ...]] = []  # the class of each SUS<=3 member
    for perm, key, u in _sweep(n):
        classes.setdefault(key, []).append(perm)
        if u <= MAX_SUS:
            low.append(key)
    frozen = {key: tuple(members) for key, members in classes.items()}
    sizes = [len(members) for members in frozen.values()]
    return EquivalenceClassReport(
        n=n,
        classes=frozen,
        class_count=len(frozen),
        max_class_size=max(sizes),
        multi_member_count=sum(1 for s in sizes if s >= 2),
        sus3_collision_count=sum(1 for c in Counter(low).values() if c >= 2),
    )


def verify_theorem(n: int) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Check that no two distinct SUS<=3 permutations share a buffer series.

    Returns None when uniqueness holds on all of S_n, otherwise the first
    colliding pair found in lexicographic order (which would indicate an
    implementation bug, not a counterexample to the underlying claim).
    """
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    for perm, key, u in _sweep(n):
        # the patience table filters, and sus cross-checks its SUS<=3 members:
        # perfbench counts these calls, each returning <=3, against A005802(n)
        if u > MAX_SUS or sus(perm) > MAX_SUS:
            continue
        if key in seen:
            return seen[key], perm
        seen[key] = perm
    return None


def verify_identities(n: int) -> IdentityViolation | None:
    """Exhaustively cross-check the structural identities on S_n.

    Per permutation, from one receiver pass: the highest ID seen equals the
    upload point (ACK minus one) plus the buffer size at every step; the
    sweep's SUS equals brute-force LDS; the ACK series is recoverable from
    the buffer series alone; and exactly the SUS<=3 permutations round-trip
    through reconstruction.  Returns None, or the first violation.

    The round trip runs reconstruction's unverified builder, ``_candidate``,
    whose result equals the permutation exactly when ``reconstruct(m)`` does.
    """
    for perm, _, u in _sweep(n, MAX_IDENTITY_N):
        m, uploads = receiver_pass(perm)
        if list(accumulate(perm, max)) != list(map(add, uploads, m)):
            return IdentityViolation(perm, "highest-vs-ack")
        if u != lds_bruteforce(perm):
            return IdentityViolation(perm, "sus-vs-lds")
        acks = ack_from_buffer(m)
        if acks != tuple(map(add, uploads, repeat(1))):
            return IdentityViolation(perm, "ack-from-buffer")
        if (u <= MAX_SUS) != (_candidate(m, acks)[0] == perm):
            return IdentityViolation(perm, "reconstruct-round-trip")
    return None
