"""Reorder density, advertised-window series, and the consistency probe."""

import math
import random
from fractions import Fraction
from functools import cache, partial
from itertools import permutations
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reorderlab import (
    CapacityExceededError,
    DisplacementDistribution,
    InvalidParameterError,
    InvalidSequenceError,
    buffer_sizes,
    consistency_counterexample,
    fb_equivalent,
    mean_buffer_size,
    rcv_window_series,
    reorder_density,
)

from _oracles import oracle_consistency_counterexample, oracle_rcv_window, oracle_rd_counts


class TestReorderDensity:
    def test_reverse_untruncated(self):
        dist = reorder_density((4, 3, 2, 1), math.inf)
        assert dist.counts == {-3: 1, -1: 1, 1: 1, 3: 1}
        assert dist.total == 4

    def test_swapped_middle_untruncated(self):
        dist = reorder_density((4, 2, 3, 1), math.inf)
        assert dist.counts == {-3: 1, 0: 2, 3: 1}
        assert dist.total == 4

    def test_identity_any_threshold(self):
        dist = reorder_density((1, 2, 3, 4, 5), 2)
        assert dist.counts == {0: 5}
        assert dist.total == 5

    def test_truncation(self):
        dist = reorder_density((4, 3, 2, 1), 1)
        assert dist.counts == {-1: 1, 1: 1}
        assert dist.total == 4

    def test_truncation_only_removes_mass(self):
        full = reorder_density((4, 2, 3, 1), math.inf)
        assert sum(full.counts.values()) == 4
        for dt in (1, 2, 3):
            cut = reorder_density((4, 2, 3, 1), dt)
            assert sum(cut.counts.values()) <= 4
            for d, c in cut.counts.items():
                assert -dt <= d <= dt
                assert full.counts[d] == c

    def test_fractions(self):
        dist = reorder_density((4, 2, 3, 1), math.inf)
        assert dist.fractions() == {
            -3: Fraction(1, 4),
            0: Fraction(1, 2),
            3: Fraction(1, 4),
        }

    def test_equality_is_exact(self):
        a = reorder_density((4, 3, 2, 1), 2)
        b = reorder_density((4, 3, 2, 1), 2)
        c = reorder_density((4, 3, 2, 1), 3)
        assert a == b
        assert a != c

    @pytest.mark.parametrize("dt", [0, -1, 2.5, -math.inf])
    def test_bad_threshold(self, dt):
        with pytest.raises(InvalidParameterError):
            reorder_density((1, 2), dt)

    def test_requires_permutation(self):
        with pytest.raises(InvalidSequenceError):
            reorder_density((1, 5), math.inf)

    def test_matches_oracle(self):
        for p in permutations(range(1, 6)):
            for dt in (1, 2, math.inf):
                dist = reorder_density(p, dt)
                counts, total = oracle_rd_counts(p, dt)
                assert dist.counts == counts
                assert dist.total == total


def _mild(n, rng):
    """1..n with each adjacent pair swapped with probability 0.1."""
    perm = list(range(1, n + 1))
    i = 0
    while i < n - 1:
        if rng.random() < 0.1:
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
            i += 1
        i += 1
    return tuple(perm)


def _random(n, rng):
    return tuple(rng.sample(range(1, n + 1), n))


class TestMatchesCountingLoop:
    """``reorder_density`` against the per-ID loop, order of ``counts`` included."""

    @staticmethod
    def _check(perm, dt):
        dist = reorder_density(perm, dt)
        counts, total = oracle_rd_counts(perm, dt)
        # the dict keeps first-occurrence order, so list equality pins it
        assert list(dist.counts.items()) == list(counts.items())
        assert repr(dist) == repr(DisplacementDistribution(counts=counts, total=total, dt=dt))

    @given(
        st.integers(min_value=0, max_value=300).flatmap(
            lambda n: st.permutations(range(1, n + 1))
        ),
        st.sampled_from([1, 2, 3, "n", math.inf]),
    )
    @settings(max_examples=300, deadline=None)
    def test_hypothesis_permutations(self, perm, dt):
        perm = tuple(perm)
        self._check(perm, max(len(perm), 1) if dt == "n" else dt)

    @pytest.mark.parametrize("shape", [_mild, _random])
    @pytest.mark.parametrize("dt", [1, 2, 3, 10_000, math.inf])
    def test_large(self, shape, dt):
        self._check(shape(10_000, random.Random(6)), dt)


class TestRcvWindow:
    def test_reverse(self):
        series = rcv_window_series((4, 3, 2, 1), 4)
        assert series.values == (0, 0, 0, 4)
        assert series.rcv_buffer == 4

    def test_in_order(self):
        assert rcv_window_series((1, 2, 3), 2).values == (2, 2, 2)

    def test_overflow_reports_first_position(self):
        with pytest.raises(CapacityExceededError) as exc:
            rcv_window_series((4, 3, 2, 1), 3)
        assert exc.value.position == 1

    def test_full_window_iff_empty_buffer(self):
        ids = (1, 2, 3, 6, 5, 7, 4, 8, 9, 10, 12, 13, 14, 11)
        series = rcv_window_series(ids, 10)
        sizes = buffer_sizes(ids)
        for value, m in zip(series.values, sizes):
            assert value == 10 - m
            assert (value == 10) == (m == 0)

    def test_bad_capacity(self):
        with pytest.raises(InvalidParameterError):
            rcv_window_series((1, 2), 0)


class TestRcvWindowMatchesLoop:
    """``rcv_window_series`` against the loop that checks every position."""

    @staticmethod
    def _check(ids, rcv_buffer):
        try:
            expected = oracle_rcv_window(buffer_sizes(ids), rcv_buffer)
        except CapacityExceededError as exc:
            with pytest.raises(CapacityExceededError) as got:
                rcv_window_series(ids, rcv_buffer)
            assert str(got.value) == str(exc)
            assert got.value.position == exc.position
        else:
            assert repr(rcv_window_series(ids, rcv_buffer)) == repr(expected)

    @given(
        st.lists(st.integers(min_value=1, max_value=60), unique=True, max_size=40),
        st.integers(min_value=1, max_value=70),
    )
    @settings(max_examples=300, deadline=None)
    def test_hypothesis_traces(self, ids, rcv_buffer):
        self._check(tuple(ids), rcv_buffer)

    @pytest.mark.parametrize("shape", [_mild, _random])
    def test_large_around_peak(self, shape):
        ids = shape(10_000, random.Random(8))
        peak = max(buffer_sizes(ids))
        for rcv_buffer in (1, peak - 1, peak, peak + 1):
            if rcv_buffer > 0:
                self._check(ids, rcv_buffer)


class TestMeanBufferSize:
    def test_reverse(self):
        assert mean_buffer_size((4, 3, 2, 1)) == 3

    def test_exact_fraction(self):
        assert mean_buffer_size((1, 3, 2)) == Fraction(2, 3)

    def test_empty(self):
        assert mean_buffer_size(()) == 0


class TestConsistency:
    def test_rd_counterexample_at_4(self):
        witness = consistency_counterexample(partial(reorder_density, dt=math.inf), 4)
        assert witness is not None
        assert set(witness) == {(4, 3, 2, 1), (4, 2, 3, 1)}

    def test_rd_every_threshold(self):
        for dt in (1, 2, 3, math.inf):
            witness = consistency_counterexample(partial(reorder_density, dt=dt), 4)
            assert witness is not None
            a, b = witness
            assert fb_equivalent(a, b)
            assert reorder_density(a, dt) != reorder_density(b, dt)

    def test_buffer_derived_metric_consistent(self):
        for n in range(1, 6):
            assert consistency_counterexample(mean_buffer_size, n) is None

    def test_max_buffer_metric_consistent(self):
        metric = lambda p: max(buffer_sizes(p), default=0)  # noqa: E731
        for n in range(1, 6):
            assert consistency_counterexample(metric, n) is None

    def test_deterministic(self):
        metric = partial(reorder_density, dt=2)
        assert consistency_counterexample(metric, 4) == consistency_counterexample(
            metric, 4
        )

    def test_witness_order_is_lexicographic(self):
        witness = consistency_counterexample(partial(reorder_density, dt=math.inf), 4)
        assert witness == ((4, 2, 3, 1), (4, 3, 2, 1))

    @pytest.mark.parametrize("n", [0, 10])
    def test_guard(self, n):
        with pytest.raises(InvalidParameterError):
            consistency_counterexample(mean_buffer_size, n)

    def test_guard_message(self):
        with pytest.raises(InvalidParameterError) as exc:
            consistency_counterexample(mean_buffer_size, 10)
        assert str(exc.value) == "n must be an integer in 1..9, got 10"


@cache
def _last_of_largest_class(n):
    classes = {}
    for perm in permutations(range(1, n + 1)):
        classes.setdefault(buffer_sizes(perm), []).append(perm)
    return max(classes.values(), key=len)[-1]


def _only_last_of_largest_class(perm):
    """True on one permutation: the last, in lexicographic order, of the largest class."""
    return perm == _last_of_largest_class(len(perm))


class _Counted:
    """A metric value that counts its comparisons in the shared one-item list ``tally``."""

    def __init__(self, value, tally):
        self.value = value
        self.tally = tally

    def __eq__(self, other):
        self.tally[0] += 1
        return self.value == other.value

    def __ne__(self, other):
        self.tally[0] += 1
        return self.value != other.value


class TestConsistencyMatchesKernelLoop:
    """The table-keyed search returns the witness of the per-permutation kernel loop."""

    @pytest.mark.parametrize(
        "metric",
        [
            mean_buffer_size,
            *(partial(reorder_density, dt=dt) for dt in (1, 2, 3, math.inf)),
            lambda p: math.nan,
            itemgetter(-1),
            _only_last_of_largest_class,
        ],
        ids=["mean-buffer", "rd-1", "rd-2", "rd-3", "rd-inf", "nan", "last-id", "last-of-largest"],
    )
    def test_same_witness(self, metric):
        for n in range(1, 8):
            expected = oracle_consistency_counterexample(metric, n)
            assert consistency_counterexample(metric, n) == expected

    def test_one_comparison_per_permutation_at_most(self):
        # each permutation meets its class's first member only; meeting every
        # earlier member of its class would take 16,587 comparisons at n = 7
        tally = [0]
        metric = lambda p: _Counted(mean_buffer_size(p), tally)  # noqa: E731
        assert consistency_counterexample(metric, 7) is None
        assert 0 < tally[0] <= math.factorial(7)
