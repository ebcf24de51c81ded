"""Reordering metrics and their behaviour under buffer equivalence.

A metric is consistent when it takes equal values on any two traces with the
same buffer series.  Metrics computed from the buffer series itself (mean
occupancy, the receiver-window series) are consistent by construction; the
displacement distribution is not, and ``consistency_counterexample`` finds
witnesses for that by exhausting all permutations of a small length.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import count, repeat
from operator import sub
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple

from .buffering import buffer_sizes, check_permutation
from .errors import CapacityExceededError, InvalidParameterError
from .oracle import MAX_ENUMERATION_N, _check_n, _sweep

if TYPE_CHECKING:
    from fractions import Fraction


class DisplacementDistribution(NamedTuple):
    """Exact displacement histogram of a permutation, truncated to [-dt, dt].

    Counts stay integral so equality between distributions is exact;
    ``fractions`` derives the normalized view for display.
    """

    counts: dict[int, int]
    total: int
    dt: int | float

    def fractions(self) -> dict[int, Fraction]:
        from fractions import Fraction

        return {d: Fraction(c, self.total) for d, c in sorted(self.counts.items())}


class RcvWindowSeries(NamedTuple):
    """Advertised receiver window over time for a fixed buffer capacity."""

    rcv_buffer: int
    values: tuple[int, ...]


def _check_dt(dt: int | float) -> None:
    if isinstance(dt, int) and not isinstance(dt, bool) and dt > 0:
        return
    if isinstance(dt, float) and math.isinf(dt) and dt > 0:
        return
    raise InvalidParameterError(f"dt must be a positive integer or math.inf, got {dt!r}")


def reorder_density(perm: Iterable[int], dt: int | float) -> DisplacementDistribution:
    """Distribution of displacements of a permutation: value minus 1-based slot.

    Displacements outside [-dt, dt] are dropped; pass ``math.inf`` to keep
    them all.
    """
    perm = check_permutation(perm)
    _check_dt(dt)
    # counted in first-occurrence order, which the filter keeps
    every = Counter(map(sub, perm, count(1)))
    counts = {d: c for d, c in every.items() if -dt <= d <= dt}
    return DisplacementDistribution(counts=counts, total=len(perm), dt=dt)


def rcv_window_series(ids: Iterable[int], rcv_buffer: int) -> RcvWindowSeries:
    """Advertised window after each arrival: capacity minus buffer occupancy."""
    if isinstance(rcv_buffer, bool) or not isinstance(rcv_buffer, int) or rcv_buffer <= 0:
        raise InvalidParameterError(
            f"rcv_buffer must be a positive integer, got {rcv_buffer!r}"
        )
    occupancy = buffer_sizes(ids)
    # C-speed capacity check; the loop runs only to name the first position over it
    if max(occupancy, default=0) > rcv_buffer:
        for pos, m in enumerate(occupancy, start=1):
            if m > rcv_buffer:
                raise CapacityExceededError(
                    f"buffer occupancy {m} exceeds capacity {rcv_buffer} at position {pos}",
                    position=pos,
                )
    return RcvWindowSeries(
        rcv_buffer=rcv_buffer, values=tuple(map(sub, repeat(rcv_buffer), occupancy))
    )


def mean_buffer_size(ids: Iterable[int]) -> Fraction:
    """Average buffer occupancy, exact; a function of the buffer series only."""
    from fractions import Fraction

    values = buffer_sizes(ids)
    return Fraction(sum(values), len(values) or 1)


def consistency_counterexample(
    metric: Callable[[tuple[int, ...]], object], n: int
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Search S_n for a buffer-equivalent pair that the metric tells apart.

    Permutations are enumerated in lexicographic order and the first
    offending pair is returned (earlier permutation first), so the result is
    reproducible.  Returns None when the metric is consistent at this length.
    Metric values must compare by exact (transitive) equality: the search
    keeps each buffer class's first member and its value, and compares every
    later member with that value alone.
    """
    _check_n(n, MAX_ENUMERATION_N)
    first: dict[tuple[int, ...], tuple[tuple[int, ...], object]] = {}
    for perm, key, _ in _sweep(n):
        value = metric(perm)
        earlier, earlier_value = first.setdefault(key, (perm, value))
        # never compare the first member's value with itself: nan != nan
        if earlier is not perm and earlier_value != value:
            return earlier, perm
    return None
