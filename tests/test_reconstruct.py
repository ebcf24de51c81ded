"""Rebuilding low-disorder permutations from their buffer-size series."""

import random
from bisect import bisect_left
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reorderlab import (
    InvalidSequenceError,
    ack_sequence,
    buffer_sizes,
    enumerate_classes,
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


# permutations of up to 200 IDs, drawn uniformly and as local swaps
_LONG_PERMUTATIONS = st.one_of(
    st.integers(0, 200).flatmap(lambda n: st.permutations(range(1, n + 1))),
    st.integers(1, 200).flatmap(_local_swaps),
)


def _rebuild(p):
    """R(M(p)): reconstruction's unverified candidate from p's own buffer series."""
    m = buffer_sizes(p)
    return _candidate(m, ack_from_buffer(m))[0]


def _flat_steps(p):
    """The 0-based positions of p's flat steps, where the buffer size does not change."""
    m = buffer_sizes(p)
    return [t for t, (prev, size) in enumerate(zip((0, *m), m)) if size == prev]


def _flat_sorted(p):
    """p with the IDs at its flat steps sorted into those steps."""
    flat = _flat_steps(p)
    out = list(p)
    for t, packet in zip(flat, sorted(p[t] for t in flat)):
        out[t] = packet
    return tuple(out)


def _flat_descents(p):
    """Pairs i < j of p's flat steps whose IDs arrive in decreasing order."""
    return [(i, j) for i, j in combinations(_flat_steps(p), 2) if p[i] > p[j]]


def _swapped(p, i, j):
    """p with the IDs at positions i and j exchanged."""
    out = list(p)
    out[i], out[j] = p[j], p[i]
    return tuple(out)


def _flat_disorder(p):
    """d: the longest decreasing subsequence of p's flat-step IDs, in arrival order."""
    tails = []  # tails[k]: the highest last ID of a decreasing run of k + 1, negated
    for packet in (p[t] for t in _flat_steps(p)):
        k = bisect_left(tails, -packet)
        tails[k : k + 1] = [-packet]
    return len(tails)


def _assert_low_member(p):
    """Sorting p's flat IDs keeps its series and gives a SUS<=3 member, R(M(p))."""
    m = buffer_sizes(p)
    low = _flat_sorted(p)
    assert buffer_sizes(low) == m
    assert sus(low) <= 3
    assert reconstruct(m) == low


def _assert_sus_formula(p):
    """SUS(p) <= 3 exactly when d <= 1, and otherwise SUS(p) = d + 2."""
    u, d = sus(p), _flat_disorder(p)
    assert (u <= 3) == (d <= 1)
    assert d <= 1 or u == d + 2


def _flat_descent_4321(p):
    """Positions a < i < j < d of a 4321 in p, built from its first flat descent i < j.

    Step i fills a hole below the highest ID before it, at a.  Step j leaves the
    upload point where it was, so the ID just above it arrives later, at d.
    None when p has no flat descent.
    """
    for i, j in combinations(_flat_steps(p), 2):
        if p[i] > p[j]:
            a = max(range(i), key=p.__getitem__)
            return a, i, j, p.index(ack_sequence(p)[j])
    return None


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
    @given(_LONG_PERMUTATIONS)
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

    def test_every_buffer_series_up_to_8(self):
        # the oracle keeps the SUS<=3 test that reconstruct_trace leaves to the proof
        series = {buffer_sizes(p) for n in range(9) for p in permutations(range(1, n + 1))}
        for w in series:
            assert reconstruct_trace(w) == oracle_reconstruct_trace(w)
        assert len(series) == 1 + 1 + 2 + 6 + 23 + 103 + 513 + 2761 + 15767  # A005802, n = 0..8

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
            # exactly the SUS<=3 permutations rebuild to themselves, and a
            # candidate equal to p is what reconstruct returns
            assert low == (candidate == p) == (reconstruct(m) == p)
            checked += low
        assert checked == (1, 1, 2, 6, 23, 103, 513, 2761)[n]  # A005802


class TestProof:
    """The three steps of the proof that p rebuilds to itself exactly when SUS(p) <= 3."""

    @pytest.mark.parametrize("n", range(9))
    def test_rebuild_sorts_flat_steps(self, n):
        # step 1: phase 1 pins every moving step to its own ID, and phase 2
        # hands the flat steps the remaining IDs in increasing order
        for p in permutations(range(1, n + 1)):
            assert _rebuild(p) == _flat_sorted(p)

    @settings(max_examples=200, deadline=None)
    @given(_LONG_PERMUTATIONS)
    def test_rebuild_sorts_flat_steps_long(self, p):
        assert _rebuild(p) == _flat_sorted(p)

    def test_flat_descent_gives_4321(self):
        # step 2, on every member of S_8 with a flat descent
        descents = 0
        for p in permutations(range(1, 9)):
            positions = _flat_descent_4321(p)
            if positions is not None:
                a, i, j, d = positions
                assert a < i < j < d and p[a] > p[i] > p[j] > p[d]
                descents += 1
            if sus(p) <= 3:
                assert positions is None
        assert descents == 40320 - 15767  # 8! less A005802(8)

    @pytest.mark.parametrize("n", range(4, 8))
    def test_4321_gives_flat_descent(self, n):
        # step 3: the middle two of any 4321 are flat, since a higher ID came
        # before them and a lower one is still missing
        for p in permutations(range(1, n + 1)):
            flat = set(_flat_steps(p))
            for a, b, c, d in combinations(range(n), 4):
                if p[a] > p[b] > p[c] > p[d]:
                    assert b in flat and c in flat

    @pytest.mark.parametrize("n", range(9))
    def test_swap_lemma(self, n):
        # exchanging the IDs of any flat descent keeps the series, so both
        # steps stay flat
        swaps = 0
        for p in permutations(range(1, n + 1)):
            m = buffer_sizes(p)
            for i, j in _flat_descents(p):
                assert buffer_sizes(_swapped(p, i, j)) == m
                swaps += 1
        assert (swaps > 0) == (n >= 4)  # a flat descent gives a 4321

    @settings(max_examples=200, deadline=None)
    @given(_LONG_PERMUTATIONS, st.data())
    def test_swap_lemma_long(self, p, data):
        pairs = _flat_descents(p)
        for i, j in data.draw(st.lists(st.sampled_from(pairs), max_size=8)) if pairs else ():
            assert buffer_sizes(_swapped(p, i, j)) == buffer_sizes(p)

    @pytest.mark.parametrize("n", range(9))
    def test_existence(self, n):
        # the lemma's exchanges sort the flat IDs, which leaves no flat descent,
        # so by step 3 no 4321: every buffer class holds a SUS<=3 member
        for p in permutations(range(1, n + 1)):
            _assert_low_member(p)

    @settings(max_examples=200, deadline=None)
    @given(_LONG_PERMUTATIONS)
    def test_existence_long(self, p):
        _assert_low_member(p)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_class_shape(self, n):
        # members of a class share the series, so the ID of every step that
        # is not flat; R(M(p)), with the flat IDs sorted, comes first
        for members in enumerate_classes(n).classes.values():
            first = members[0]
            assert _rebuild(first) == first
            flat = set(_flat_steps(first))
            moving = [t for t in range(n) if t not in flat]
            for p in members[1:]:
                assert [p[t] for t in moving] == [first[t] for t in moving]

    @pytest.mark.parametrize("n", range(9))
    def test_sus_from_flat_steps(self, n):
        for p in permutations(range(1, n + 1)):
            _assert_sus_formula(p)

    @settings(max_examples=200, deadline=None)
    @given(_LONG_PERMUTATIONS)
    def test_sus_from_flat_steps_long(self, p):
        _assert_sus_formula(p)
