"""Exhaustive small-length enumeration and verification engine."""

from functools import reduce
from itertools import combinations, permutations
from math import factorial
from operator import getitem
from random import Random

import pytest

from reorderlab import (
    IdentityViolation,
    InvalidParameterError,
    buffer_sizes,
    enumerate_classes,
    lds_bruteforce,
    reconstruct,
    sus,
    verify_identities,
    verify_theorem,
)
from reorderlab.buffering import receiver_pass
from reorderlab.oracle import _patience_nodes, _received_sets, _sweep

from _oracles import OracleReceiverState, oracle_classes, oracle_m


class TestSeriesTable:
    """The table of received sets gives the receiver's series."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_kernel_and_prefix_oracle(self, n):
        for perm, series, _ in _sweep(n):
            assert series == buffer_sizes(perm) == oracle_m(perm)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_every_entry_matches_receiver_state(self, n):
        # a set's entry is the buffer size once its members have arrived, in
        # any order, and a permutation that starts with a non-empty set's
        # members reads that entry at the end of its prefix
        rng = Random(n)
        table = _received_sets(n)
        assert len(table) == 1 << n
        reads = {}
        for mask in range(1 << n):
            members = [v for v in range(1, n + 1) if mask >> (v - 1) & 1]
            rest = [v for v in range(1, n + 1) if not mask >> (v - 1) & 1]
            rng.shuffle(members)
            state = OracleReceiverState()
            for v in members:
                state.observe(v)
            assert table[mask] == state.buffer_size
            if members:
                reads.setdefault(tuple(members + rest), []).append((len(members) - 1, mask))
        checked = 0
        for perm, series, _ in _sweep(n):
            for position, mask in reads.get(perm, ()):
                assert series[position] == table[mask]
                checked += 1
        assert checked == (1 << n) - 1

    @pytest.mark.parametrize("n", range(1, 8))
    def test_classes_match_kernel_loop(self, n):
        expected = oracle_classes(n)
        assert list(enumerate_classes(n).classes.items()) == list(expected.items())


def _patience_step(tails, v):
    """Tail set after v arrives: v replaces the largest tail below it, if any."""
    below = [t for t in tails if t < v]
    kept = [t for t in tails if t != below[-1]] if below else list(tails)
    return tuple(sorted(set(kept + [v])))


class TestSusTable:
    """The table of patience states gives the greedy partition's SUS."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_sus_and_bruteforce(self, n):
        for perm, _, count in _sweep(n):
            assert count == sus(perm) == lds_bruteforce(perm)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_every_transition_is_one_patience_step(self, n):
        nodes = _patience_nodes(n)
        root = nodes[0]
        # IDs fed in decreasing order each open a list of their own, so they
        # lead to the node whose tail set is exactly theirs
        node_of = {
            tails: reduce(getitem, reversed(tails), root)
            for k in range(n + 1)
            for tails in combinations(range(1, n + 1), k)
        }
        assert len({id(node) for node in node_of.values()}) == len(nodes) == 1 << n
        for tails, node in node_of.items():
            assert node[0] == len(tails)
            assert len(node) == n + 1
            for v in range(1, n + 1):
                assert node[v] is node_of[_patience_step(tails, v)]

    @pytest.mark.parametrize("n", range(1, 10))
    def test_sus3_count_is_a005802(self, n):
        low = sum(1 for _, _, count in _sweep(n) if count <= 3)
        assert low == A005802[n - 1]


class TestEnumerateClasses:
    def test_single_packet(self):
        report = enumerate_classes(1)
        assert report.class_count == 1
        assert report.classes == {(0,): ((1,),)}
        assert report.max_class_size == 1
        assert report.multi_member_count == 0
        assert report.sus3_collision_count == 0

    def test_length_four_collision_class(self):
        report = enumerate_classes(4)
        assert report.classes[(4, 4, 4, 0)] == ((4, 2, 3, 1), (4, 3, 2, 1))
        assert {sus(p) for p in report.classes[(4, 4, 4, 0)]} == {3, 4}
        assert report.sus3_collision_count == 0
        assert report.multi_member_count >= 1

    def test_classes_partition_all_permutations(self):
        report = enumerate_classes(4)
        members = [p for group in report.classes.values() for p in group]
        assert sorted(members) == sorted(tuple(p) for p in permutations(range(1, 5)))
        for key, group in report.classes.items():
            for p in group:
                assert buffer_sizes(p) == key

    def test_keys_reconstructable_when_low_disorder(self):
        for n in range(1, 7):
            report = enumerate_classes(n)
            for key, group in report.classes.items():
                low = [p for p in group if sus(p) <= 3]
                if low:
                    assert len(low) == 1
                    assert reconstruct(key) == low[0]

    def test_deterministic(self):
        assert enumerate_classes(5) == enumerate_classes(5)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_counts_match_kernel_loop(self, n):
        sizes = [len(members) for members in oracle_classes(n).values()]
        report = enumerate_classes(n)
        assert report.class_count == len(sizes)
        assert report.max_class_size == max(sizes)
        assert report.multi_member_count == sum(1 for s in sizes if s >= 2)
        assert report.multi_member_count == MULTI_MEMBER[n - 1]

    @pytest.mark.parametrize("n", [0, -1, 10])
    def test_guard(self, n):
        with pytest.raises(InvalidParameterError):
            enumerate_classes(n)


# OEIS A005802: permutations of length n with no increasing subsequence of
# length 4, i.e. (reversed) those with SUS <= 3, for n = 1..9
A005802 = (1, 2, 6, 23, 103, 513, 2761, 15767, 94359)

# buffer classes of S_n with two or more members, for n = 1..7
MULTI_MEMBER = (0, 0, 0, 1, 13, 117, 924)


class TestCompleteness:
    """The enumeration visits all of S_n and finds every SUS<=3 permutation."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_counts(self, n):
        report = enumerate_classes(n)
        assert sum(map(len, report.classes.values())) == factorial(n)
        low = [sum(1 for p in members if sus(p) <= 3) for members in report.classes.values()]
        # every buffer class holds exactly one SUS<=3 member
        assert low == [1] * A005802[n - 1]


class TestSweepOrder:
    """The sweep yields all of S_n, each permutation once, in lexicographic order."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_is_permutations(self, n):
        assert [perm for perm, _, _ in _sweep(n)] == list(permutations(range(1, n + 1)))


def _series_of(n):
    """The sweep's buffer series column."""
    return (series for _, series, _ in _sweep(n))


def _sus_of(n):
    """The sweep's SUS column."""
    return (count for _, _, count in _sweep(n))


class TestTableLength:
    """The series and SUS tables give one value per permutation."""

    @pytest.mark.parametrize("n", range(1, 10))
    @pytest.mark.parametrize("table", [_series_of, _sus_of])
    def test_one_value_per_permutation(self, table, n):
        assert sum(1 for _ in table(n)) == factorial(n)


class TestVerifyTheorem:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_passes(self, n):
        assert verify_theorem(n) is None

    @pytest.mark.parametrize("n", range(1, 9))
    def test_sus_called_on_sus3_members_only(self, monkeypatch, n):
        # perfbench's traced gate counts the sus calls under verify_theorem
        # that return <=3, and requires A005802(n) of them
        results = []

        def spy(perm):
            results.append(sus(perm))
            return results[-1]

        monkeypatch.setattr("reorderlab.oracle.sus", spy)
        assert verify_theorem(n) is None
        assert len(results) == A005802[n - 1]
        assert max(results) <= 3

    @pytest.mark.parametrize("n", [0, 10])
    def test_guard(self, n):
        with pytest.raises(InvalidParameterError):
            verify_theorem(n)


class TestVerifyIdentities:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_passes(self, monkeypatch, n):
        # one receiver pass per permutation: the sweep visits all n! of S_n
        visited = []

        def spy(perm):
            visited.append(perm)
            return receiver_pass(perm)

        monkeypatch.setattr("reorderlab.oracle.receiver_pass", spy)
        assert verify_identities(n) is None
        assert visited == list(permutations(range(1, n + 1)))

    @pytest.mark.parametrize("n", [0, 8])
    def test_guard(self, n):
        with pytest.raises(InvalidParameterError):
            verify_identities(n)


def _sizes_off_by_one(perm):
    sizes, uploads = receiver_pass(perm)
    return [m + 1 for m in sizes], uploads


def _sus_one(n):
    """The sweep with every SUS reported as 1."""
    return ((perm, series, 1) for perm, series, _ in _sweep(n))


class TestWitnessBranches:
    """A wrong engine part makes each engine report its witness."""

    @pytest.mark.parametrize(
        "name, wrong, check",
        [
            ("receiver_pass", _sizes_off_by_one, "highest-vs-ack"),
            ("lds_bruteforce", lambda perm: 0, "sus-vs-lds"),
            ("ack_from_buffer", lambda values: (), "ack-from-buffer"),
            ("_candidate", lambda w, acks: ((), [], []), "reconstruct-round-trip"),
        ],
    )
    def test_identities(self, monkeypatch, name, wrong, check):
        monkeypatch.setattr(f"reorderlab.oracle.{name}", wrong)
        assert verify_identities(4).check == check

    def test_theorem_and_classes(self, monkeypatch):
        monkeypatch.setattr("reorderlab.oracle.sus", lambda perm: 1)
        monkeypatch.setattr("reorderlab.oracle._sweep", _sus_one)
        for n in (4, 5):
            series = {p: oracle_m(p) for p in permutations(range(1, n + 1))}
            # the pair found first ends at the earliest permutation sharing a
            # buffer series with an earlier one, and starts at the earliest such
            later, earlier = min(
                (b, a) for a, b in combinations(series, 2) if series[a] == series[b]
            )
            assert verify_theorem(n) == (earlier, later)
            # with every member at SUS<=3, every multi-member class collides
            multi = sum(1 for members in oracle_classes(n).values() if len(members) >= 2)
            assert enumerate_classes(n).sus3_collision_count == multi > 0

    @pytest.mark.parametrize(
        "name, wrong",
        [("_sweep", _sus_one), ("sus", lambda perm: 1)],
    )
    def test_theorem_either_filter_alone(self, monkeypatch, name, wrong):
        # the patience table and sus each keep the SUS>=4 members out
        monkeypatch.setattr(f"reorderlab.oracle.{name}", wrong)
        assert verify_theorem(5) is None


class TestBoundFour:
    """At SUS<=4 uniqueness fails, as the paper says, and every engine sees it."""

    @pytest.fixture(autouse=True)
    def bound_four(self, monkeypatch):
        monkeypatch.setattr("reorderlab.oracle.MAX_SUS", 4)

    def test_theorem(self):
        assert verify_theorem(4) == ((4, 2, 3, 1), (4, 3, 2, 1))

    @pytest.mark.parametrize("n, collisions", [(4, 1), (5, 13)])
    def test_classes(self, n, collisions):
        # at n=5 that is every multi-member class
        assert enumerate_classes(n).sus3_collision_count == collisions

    def test_identities(self):
        # (4, 3, 2, 1) has SUS 4; its series' candidate is (4, 2, 3, 1)
        expected = IdentityViolation((4, 3, 2, 1), "reconstruct-round-trip")
        assert verify_identities(4) == expected
