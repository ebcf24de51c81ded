"""Exhaustive small-length enumeration and verification engine."""

from functools import cache, partial, reduce
from itertools import combinations, permutations
from math import comb, factorial
from operator import getitem
from random import Random

import pytest

from reorderlab import (
    IdentityViolation,
    InvalidParameterError,
    buffer_sizes,
    consistency_counterexample,
    enumerate_classes,
    lds_bruteforce,
    reconstruct,
    sus,
    verify_identities,
    verify_theorem,
)
from reorderlab.buffering import receiver_pass
from reorderlab.oracle import _patience_nodes, _received_sets, _sweep

from _oracles import OracleReceiverState, oracle_classes, oracle_m, oracle_verify_identities


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

    @pytest.mark.parametrize("n", [0, -1, 10, True, 2.0])
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


def a005802(n):
    """Gessel's closed form for A005802(n), the count of SUS<=3 permutations of 1..n."""
    total = sum(comb(2 * k, k) * comb(n + 1, k + 1) * comb(n + 2, k + 1) for k in range(n + 1))
    return total // ((n + 1) ** 2 * (n + 2))


@cache
def _series_completions(left, masks):
    """Distinct buffer series that finish a prefix, in the prefix's state.

    A series prefix fixes the upload point (``ack_from_buffer`` reads it
    off) and the highest ID, the upload point plus the last value.  What is
    open is which IDs between them have arrived: ``masks`` holds every
    received set the prefix allows, bit k standing for ID upload point + 1 + k,
    and ``left`` counts the IDs above the upload point.
    """
    if not left:
        return 1
    after = {}  # next buffer value -> IDs left above the upload point, received masks
    for mask in masks:
        for k in range(left):
            if not mask >> k & 1:
                grown = mask | 1 << k
                moved = (grown & ~(grown + 1)).bit_length()  # IDs uploaded, from bit 0 up
                grown >>= moved
                lefts, grown_masks = after.setdefault(grown.bit_length(), (set(), set()))
                lefts.add(left - moved)
                grown_masks.add(grown)
    total = 0
    for lefts, grown_masks in after.values():
        (rest,) = lefts  # one series value fixes the new upload point
        total += _series_completions(rest, frozenset(grown_masks))
    return total


def buffer_class_count(n):
    """How many distinct buffer series S_n has, by a walk over series prefixes.

    It shares no code with the sweep, the receiver or reconstruction.  By the
    theorem each class holds at most one SUS<=3 member, so a count of
    A005802(n) says every class holds exactly one.
    """
    return _series_completions(n, frozenset({0}))


class TestBufferClassWalk:
    """Every buffer class of S_n holds a SUS<=3 member: A005802(n) classes."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_enumeration(self, n):
        assert buffer_class_count(n) == enumerate_classes(n).class_count

    @pytest.mark.parametrize("n", range(0, 12))
    def test_matches_closed_form(self, n):
        assert buffer_class_count(n) == a005802(n)

    def test_closed_form_matches_table(self):
        assert tuple(map(a005802, range(1, 10))) == A005802


@cache
def _flat_ascent_completions(left, mask, last):
    """Ways to finish a prefix so that every later flat step's ID is above ``last``.

    The state is shifted down by the upload point: ``left`` counts the IDs above
    it, bit k of ``mask`` says whether ID upload point + 1 + k has arrived, and
    ``last`` is the last flat step's ID, or 0 once that ID is uploaded.  The
    highest ID is the mask's top bit, so the buffer size is the mask's bit length.
    """
    if not left:
        return 1
    total = 0
    for k in range(left):
        if mask >> k & 1:
            continue
        grown = mask | 1 << k
        moved = (grown & ~(grown + 1)).bit_length()  # IDs uploaded, from bit 0 up
        grown >>= moved
        if grown.bit_length() != mask.bit_length():
            total += _flat_ascent_completions(left - moved, grown, max(0, last - moved))
        elif k >= last:  # a flat step, whose ID k + 1 must be above the last flat ID
            total += _flat_ascent_completions(left - moved, grown, max(0, k + 1 - moved))
    return total


def flat_ascent_count(n):
    """How many permutations of 1..n have their flat-step IDs in increasing order.

    It shares no code with the library.  By the README's proof these are the
    SUS<=3 permutations, A005802(n) of them, one per buffer class.
    """
    return _flat_ascent_completions(n, 0, 0)


class TestFlatAscentWalk:
    """The permutations whose flat IDs ascend are A005802(n) in number."""

    @pytest.mark.parametrize("n", range(0, 13))
    def test_matches_closed_form(self, n):
        assert flat_ascent_count(n) == a005802(n)


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

    @pytest.mark.parametrize("n", [0, -1, 10, True, 2.0])
    def test_guard(self, n):
        with pytest.raises(InvalidParameterError):
            verify_theorem(n)


class TestVerifyIdentities:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_passes(self, monkeypatch, n):
        # one receiver pass per permutation: the sweep visits all n! of S_n
        visited, sus_calls = [], []

        def spy(perm):
            visited.append(perm)
            return receiver_pass(perm)

        monkeypatch.setattr("reorderlab.oracle.receiver_pass", spy)
        # the SUS comes from the sweep's patience table, not from greedy sus
        monkeypatch.setattr("reorderlab.oracle.sus", sus_calls.append)
        assert verify_identities(n) is None
        assert visited == list(permutations(range(1, n + 1)))
        assert sus_calls == []

    @pytest.mark.parametrize("n", [0, -1, 8, 10, True, 2.0])
    def test_guard(self, n):
        with pytest.raises(InvalidParameterError):
            verify_identities(n)


# each engine's length cap; the sweep is the one place that checks it
CAPS = {
    "enumerate_classes": 9,
    "verify_theorem": 9,
    "verify_identities": 7,
    "consistency_counterexample": 9,
}


class TestLengthCap:
    """A rejected n raises the cap's message before the sweep builds a table."""

    @pytest.mark.parametrize(
        "engine, n",
        [(engine, n) for engine in CAPS for n in (0, -1, 10, True, 2.0)]
        + [("verify_identities", 8)],
    )
    def test_rejected_before_any_table(self, monkeypatch, engine, n):
        built, measured = [], []
        monkeypatch.setattr("reorderlab.oracle._received_sets", built.append)
        monkeypatch.setattr("reorderlab.oracle._patience_nodes", built.append)
        run = {
            "enumerate_classes": enumerate_classes,
            "verify_theorem": verify_theorem,
            "verify_identities": verify_identities,
            "consistency_counterexample": partial(consistency_counterexample, measured.append),
        }[engine]
        with pytest.raises(InvalidParameterError) as exc:
            run(n)
        assert str(exc.value) == f"n must be an integer in 1..{CAPS[engine]}, got {n!r}"
        assert built == measured == []

    def test_accepted_builds_both_tables(self, monkeypatch):
        # the spies above would see each table the sweep builds
        built = []
        for table in (_received_sets, _patience_nodes):

            def spy(n, table=table):
                built.append(n)
                return table(n)

            monkeypatch.setattr(f"reorderlab.oracle.{table.__name__}", spy)
        assert verify_theorem(3) is None
        assert built == [3, 3]


class TestIdentitiesMatchPermutationsLoop:
    """The sweep's identity engine against its own ``permutations()`` loop and greedy sus."""

    @pytest.mark.parametrize("bound", range(1, 6))
    @pytest.mark.parametrize("n", range(1, 8))
    def test_same_result(self, monkeypatch, n, bound):
        monkeypatch.setattr("reorderlab.oracle.MAX_SUS", bound)
        expected = oracle_verify_identities(n)
        assert verify_identities(n) == expected
        # only the paper's bound passes on every S_n: a lower one fails once a
        # permutation of SUS bound + 1 round-trips, a higher one at 4321
        assert (expected is None) == (bound == 3 or n <= min(bound, 3))


def _sizes_off_by_one(perm):
    sizes, uploads = receiver_pass(perm)
    return [m + 1 for m in sizes], uploads


def _sus_one(n, *limit):
    """The sweep with every SUS reported as 1."""
    return ((perm, series, 1) for perm, series, _ in _sweep(n, *limit))


class TestWitnessBranches:
    """A wrong engine part makes each engine report its witness."""

    @pytest.mark.parametrize(
        "name, wrong, check",
        [
            ("receiver_pass", _sizes_off_by_one, "highest-vs-ack"),
            ("lds_bruteforce", lambda perm: 0, "sus-vs-lds"),
            ("_sweep", _sus_one, "sus-vs-lds"),
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


class TestBoundTwo:
    """At SUS<=2 the round trip holds beyond the bound, and the identity check sees it."""

    def test_identities(self, monkeypatch):
        monkeypatch.setattr("reorderlab.oracle.MAX_SUS", 2)
        # (1, 4, 3, 2) has SUS 3, so it rebuilds to itself
        expected = IdentityViolation((1, 4, 3, 2), "reconstruct-round-trip")
        assert verify_identities(4) == expected
