"""Rebuilding low-disorder permutations from their buffer-size series."""

import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reorderlab import (
    InvalidSequenceError,
    ack_sequence,
    buffer_sizes,
    reconstruct,
    reconstruct_trace,
    sus,
)
from reorderlab.buffering import ack_from_buffer
from reorderlab.reconstruct import _candidate

from _oracles import interleave_runs, oracle_reconstruct_trace


def _local_swaps(n):
    """1..n after a drawn list of swaps, each of two IDs at most three places apart."""

    def swapped(moves):
        ids = list(range(1, n + 1))
        for i, d in moves:
            j = min(i + d, n - 1)
            ids[i], ids[j] = ids[j], ids[i]
        return ids

    return st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 3)), max_size=n).map(swapped)


class TestExamples:
    def test_reverse_image(self):
        assert reconstruct((4, 4, 4, 0)) == (4, 2, 3, 1)

    def test_in_order(self):
        assert reconstruct((0, 0, 0)) == (1, 2, 3)

    def test_grow_then_shrink(self):
        assert reconstruct((3, 4, 3, 0)) == (3, 4, 1, 2)

    def test_infeasible_single(self):
        # a lone first packet x gives buffer x (x>1) or 0, never 1
        assert reconstruct((1,)) is None

    def test_infeasible_caught_by_verification(self):
        assert reconstruct((2, 2)) is None

    def test_empty(self):
        assert reconstruct(()) == ()

    def test_negative_value_rejected(self):
        with pytest.raises(InvalidSequenceError):
            reconstruct((1, -1))


class TestSharpness:
    def test_high_disorder_preimage_invisible(self):
        # (4,3,2,1) also maps to (4,4,4,0) but needs four ascending lists
        assert buffer_sizes((4, 3, 2, 1)) == (4, 4, 4, 0)
        assert sus((4, 3, 2, 1)) == 4
        assert reconstruct((4, 4, 4, 0)) != (4, 3, 2, 1)


class TestRoundTrip:
    def test_exhaustive_small(self):
        for n in range(7):
            for p in permutations(range(1, n + 1)):
                if sus(p) <= 3:
                    assert reconstruct(buffer_sizes(p)) == p

    def test_random_long(self):
        rng = random.Random(23)
        for _ in range(100):
            perm = interleave_runs(60, 3, rng)
            assert reconstruct(buffer_sizes(perm)) == perm

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.integers(0, 200).flatmap(lambda n: st.permutations(range(1, n + 1))),
            st.integers(1, 200).flatmap(_local_swaps),
        )
    )
    def test_every_series_has_a_low_disorder_preimage(self, p):
        # the paper proves at most one SUS<=3 preimage; this checks that there
        # is one for any permutation, of any SUS
        m = buffer_sizes(p)
        got = reconstruct(m)
        assert got is not None
        assert sorted(got) == list(range(1, len(p) + 1))
        assert buffer_sizes(got) == m


class TestSoundness:
    def test_random_series_verified(self):
        # arbitrary non-negative series: either rejected or a true preimage
        rng = random.Random(5)
        returned = 0
        for _ in range(2000):
            n = rng.randrange(0, 7)
            w = tuple(rng.randrange(0, n + 2) for _ in range(n))
            got = reconstruct(w)
            if got is not None:
                returned += 1
                assert sorted(got) == list(range(1, n + 1))
                assert buffer_sizes(got) == w
                assert sus(got) <= 3
        assert returned > 0


class TestTrace:
    def test_phase_split(self):
        trace = reconstruct_trace((4, 4, 4, 0))
        assert trace.permutation == (4, 2, 3, 1)
        assert trace.phase1_positions == frozenset({1, 4})
        assert trace.phase2_positions == frozenset({2, 3})
        assert trace.packets == (4, 2, 3, 1)
        assert trace.acks == (1, 1, 1, 5)

    def test_phases_partition_positions(self):
        w = buffer_sizes((3, 4, 1, 2))
        trace = reconstruct_trace(w)
        n = len(w)
        assert trace.phase1_positions | trace.phase2_positions == set(range(1, n + 1))
        assert not (trace.phase1_positions & trace.phase2_positions)
        # phase 1 owns exactly the positions where the series moved
        prev = 0
        for pos, v in enumerate(w, start=1):
            expected_phase1 = v != prev
            assert (pos in trace.phase1_positions) == expected_phase1
            prev = v

    def test_acks_match_receiver(self):
        trace = reconstruct_trace((0, 2, 0, 2, 0))
        assert trace.permutation == (1, 3, 2, 5, 4)
        assert trace.acks == ack_sequence(trace.permutation)

    def test_mixed_states_infeasible(self):
        # M=2 cannot persist when the only missing ID below H would close the gap
        assert reconstruct((0, 0, 2, 2, 0)) is None

    def test_failed_trace_keeps_arrays(self):
        trace = reconstruct_trace((2, 2))
        assert trace.permutation is None
        assert len(trace.packets) == 2


class TestMatchesOwnAckLoop:
    """``reconstruct_trace`` against the loop with its own running ACK and next-free scan."""

    def test_every_short_series(self):
        checked = 0
        for n in range(6):
            for w in product(range(6), repeat=n):
                assert reconstruct_trace(w) == oracle_reconstruct_trace(w)
                checked += 1
        assert checked == 9331

    def test_every_buffer_series_up_to_7(self):
        series = {buffer_sizes(p) for n in range(8) for p in permutations(range(1, n + 1))}
        for w in series:
            assert reconstruct_trace(w) == oracle_reconstruct_trace(w)
        assert len(series) == 1 + 1 + 2 + 6 + 23 + 103 + 513 + 2761  # A005802, n = 0..7

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.lists(st.integers(0, 40), max_size=200),
            st.integers(0, 200).flatmap(lambda n: st.permutations(range(1, n + 1))).map(
                buffer_sizes
            ),
            # SUS<=3 preimages, which reconstruct to a permutation
            st.builds(
                lambda n, seed: buffer_sizes(interleave_runs(n, 3, random.Random(seed))),
                st.integers(0, 200),
                st.integers(),
            ),
        )
    )
    def test_long_series(self, w):
        assert reconstruct_trace(w) == oracle_reconstruct_trace(w)


class TestUnverifiedCandidate:
    """``_candidate`` alone decides the round trip that ``verify_identities`` checks."""

    @pytest.mark.parametrize("n", range(8))
    def test_round_trip_matches_reconstruct(self, n):
        checked = 0
        for p in permutations(range(1, n + 1)):
            m = buffer_sizes(p)
            candidate = _candidate(m, ack_from_buffer(m))[0]
            low = sus(p) <= 3
            # every SUS<=3 permutation, where the two must agree; above 3 the
            # candidate may still be p, which reconstruct rejects
            assert (low and candidate == p) == (reconstruct(m) == p)
            checked += low
        assert checked == (1, 1, 2, 6, 23, 103, 513, 2761)[n]  # A005802
