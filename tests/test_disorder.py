"""Greedy ascending-list partition and the decreasing-subsequence oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reorderlab import InvalidSequenceError, lds_bruteforce, sus, sus_partition

from _oracles import interleave_runs, oracle_first_fit, oracle_lds_exhaustive

idseq_strategy = st.lists(
    st.integers(min_value=1, max_value=40), unique=True, max_size=10
).map(tuple)


class TestSusPartition:
    def test_five_list_example(self):
        part = sus_partition((6, 5, 8, 7, 10, 9, 12, 11, 4, 3, 2))
        assert part.sus == 5
        assert part.lists == (
            (6, 8, 10, 12),
            (5, 7, 9, 11),
            (4,),
            (3,),
            (2,),
        )

    def test_sorted_single_list(self):
        part = sus_partition((1, 2, 3, 4))
        assert part.sus == 1
        assert part.lists == ((1, 2, 3, 4),)

    def test_reverse_one_list_each(self):
        assert sus((4, 3, 2, 1)) == 4
        assert sus((4, 2, 3, 1)) == 3

    def test_empty(self):
        part = sus_partition(())
        assert part.sus == 0
        assert part.lists == ()

    def test_duplicates_rejected(self):
        with pytest.raises(InvalidSequenceError):
            sus_partition((2, 2))

    @given(idseq_strategy)
    @settings(max_examples=200, deadline=None)
    def test_partition_is_ascending_and_complete(self, ids):
        part = sus_partition(ids)
        flattened = [v for lst in part.lists for v in lst]
        assert sorted(flattened) == sorted(ids)
        for lst in part.lists:
            assert all(a < b for a, b in zip(lst, lst[1:]))

    @given(idseq_strategy)
    @settings(max_examples=200, deadline=None)
    def test_list_tails_strictly_decreasing(self, ids):
        # the last element of an earlier list always exceeds later lists' tails
        part = sus_partition(ids)
        tails = [lst[-1] for lst in part.lists]
        assert all(a > b for a, b in zip(tails, tails[1:]))


    @given(idseq_strategy)
    @settings(max_examples=300, deadline=None)
    def test_matches_linear_first_fit(self, ids):
        assert sus_partition(ids).lists == oracle_first_fit(ids)

    @pytest.mark.parametrize("n", [1_000, 5_000])
    def test_matches_linear_first_fit_at_large_n(self, n):
        rng = random.Random(n)
        shuffled = rng.sample(range(1, n + 1), n)
        swapped = list(range(1, n + 1))
        for i in range(0, n - 1, 7):
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        for ids in (shuffled, swapped, interleave_runs(n, 3, rng), rng.sample(range(1, 3 * n), n)):
            lists = oracle_first_fit(ids)
            assert sus_partition(ids).lists == lists
            assert sus(ids) == len(lists)

    @given(idseq_strategy)
    @settings(max_examples=300, deadline=None)
    def test_count_matches_partition_and_lds(self, ids):
        assert sus(ids) == sus_partition(ids).sus == lds_bruteforce(ids)

    def test_count_matches_lds_bruteforce(self):
        rng = random.Random(3)
        for n in (50, 200, 600):
            ids = rng.sample(range(1, 2 * n), n)
            assert sus(ids) == lds_bruteforce(ids)


class TestLds:
    def test_five_list_example(self):
        assert lds_bruteforce((6, 5, 8, 7, 10, 9, 12, 11, 4, 3, 2)) == 5

    def test_no_descent(self):
        assert lds_bruteforce((1, 2, 3)) == 1

    def test_fourteen_trace(self):
        assert lds_bruteforce((1, 2, 3, 6, 5, 7, 4, 8, 9, 10, 12, 13, 14, 11)) == 3

    def test_empty(self):
        assert lds_bruteforce(()) == 0

    @given(st.lists(st.integers(min_value=1, max_value=20), unique=True, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_matches_exhaustive_search(self, ids):
        assert lds_bruteforce(ids) == oracle_lds_exhaustive(ids)


class TestGreedyEqualsLds:
    @given(idseq_strategy)
    @settings(max_examples=300, deadline=None)
    def test_property(self, ids):
        assert sus(ids) == lds_bruteforce(ids)

    def test_interleaved_runs_stay_low(self):
        rng = random.Random(11)
        for _ in range(50):
            perm = interleave_runs(30, 3, rng)
            assert sus(perm) <= 3
            assert sus(perm) == lds_bruteforce(perm)
