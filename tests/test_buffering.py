"""Buffer-size mapping, ACK derivation, equivalence, and episodes."""

import io
import random
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reorderlab import (
    ORDERED,
    UNORDERED,
    Episode,
    InvalidSequenceError,
    ReceiverState,
    ack_from_buffer,
    ack_sequence,
    behaviorally_equivalent,
    buffer_sizes,
    check_ids,
    check_permutation,
    fb_equivalent,
    lds_bruteforce,
    reconstruct,
    reconstruct_trace,
    segment_episodes,
    sus,
    sus_partition,
)
from reorderlab.buffering import _equivalences, check_buffer_values, receiver_pass
from reorderlab.cli import EXIT_INPUT, main

from _oracles import (
    OracleReceiverState,
    oracle_ack,
    oracle_check_buffer_values,
    oracle_check_ids,
    oracle_check_permutation,
    oracle_episodes,
    oracle_equivalences,
    oracle_m,
)

TRACE_14 = (1, 2, 3, 6, 5, 7, 4, 8, 9, 10, 12, 13, 14, 11)

permutation_strategy = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.permutations(range(1, n + 1))
).map(tuple)
# distinct positive IDs, gaps allowed
idseq_strategy = st.lists(
    st.integers(min_value=1, max_value=30), unique=True, max_size=12
).map(tuple)


class _IntId(int):
    """An int subclass: accepted as a packet ID like a plain int."""


@st.composite
def rough_traces(draw):
    """Traces that may break the ID rules: repeats, non-positive IDs, wrong types."""
    ids = draw(st.lists(st.integers(min_value=-1, max_value=25), max_size=12))
    if draw(st.booleans()):
        odd = draw(st.sampled_from([True, False, 2.0, "3", None, _IntId(5)]))
        ids.insert(draw(st.integers(min_value=0, max_value=len(ids))), odd)
    return tuple(ids)


@st.composite
def rough_series(draw):
    """Buffer series that may break the rules: negatives, wrong types."""
    values = draw(st.lists(st.integers(min_value=-2, max_value=6), max_size=12))
    if draw(st.booleans()):
        odd = draw(st.sampled_from([True, False, 0.0, 2.0, "3", None, _IntId(4), _IntId(-1)]))
        values.insert(draw(st.integers(min_value=0, max_value=len(values))), odd)
    return tuple(values)


@st.composite
def split_traces(draw):
    """A rough trace and its chunks at drawn cut points; chunks may be empty."""
    ids = draw(rough_traces())
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=len(ids)), max_size=4)))
    bounds = [0, *cuts, len(ids)]
    return ids, [ids[a:b] for a, b in zip(bounds, bounds[1:])]


def _outcome(fn, *args):
    """A call's result, or the message and position of the error it raised."""
    try:
        return "ok", fn(*args)
    except InvalidSequenceError as exc:
        return "error", str(exc), exc.position


def _state_view(state):
    return (
        state.highest_seen,
        state.uploadable,
        state.arrivals,
        state.received,
        state.buffer_size,
        state.next_ack,
    )


def _receiver_state_series(ids):
    state = OracleReceiverState()
    sizes, acks = [], []
    for v in ids:
        sizes.append(state.observe(v))
        acks.append(state.next_ack)
    return sizes, acks


def _kernel_series(ids):
    sizes, uploads = receiver_pass(ids)
    return sizes, [u + 1 for u in uploads]


class TestReceiverPass:
    @given(rough_traces())
    @settings(max_examples=400, deadline=None)
    def test_matches_receiver_state(self, ids):
        expected = _outcome(_receiver_state_series, ids)
        assert _outcome(_kernel_series, ids) == expected
        if expected[0] == "ok":
            assert expected[1] == (list(oracle_m(ids)), list(oracle_ack(ids)))
        else:
            # same message and position as the separate validation pass
            assert _outcome(check_ids, ids) == expected

    @given(rough_traces())
    @settings(max_examples=200, deadline=None)
    def test_derived_functions_raise_the_first_bad_id(self, ids):
        expected = _outcome(_receiver_state_series, ids)
        if expected[0] == "ok":
            return
        for fn in (buffer_sizes, ack_sequence, segment_episodes):
            assert _outcome(fn, ids) == expected
        for fn in (fb_equivalent, behaviorally_equivalent):
            # both traces are validated before their lengths are compared
            assert _outcome(fn, ids, (1, 2)) == expected
            assert _outcome(fn, (1, 2, 3), ids) == expected

    def test_accepts_any_iterable(self):
        assert buffer_sizes(iter(TRACE_14)) == buffer_sizes(TRACE_14)
        assert ack_sequence(iter(TRACE_14)) == ack_sequence(TRACE_14)
        assert segment_episodes(iter(TRACE_14)) == segment_episodes(TRACE_14)
        assert fb_equivalent(iter(TRACE_14), iter(TRACE_14))

    def test_long_gapped_trace_matches_receiver_state(self):
        rng = random.Random(5)
        ids = rng.sample(range(1, 40_000), 20_000)
        assert _kernel_series(ids) == _receiver_state_series(ids)


class TestCheckIds:
    """The pre-checked ``check_ids`` against the plain validation loop."""

    @given(rough_traces())
    @example(())
    @example((10**30,))
    @settings(max_examples=400, deadline=None)
    def test_matches_loop_oracle(self, ids):
        assert _outcome(check_ids, ids) == _outcome(oracle_check_ids, ids)

    @given(rough_traces())
    @example((10**30, 2, 10**30))
    @settings(max_examples=200, deadline=None)
    def test_callers_raise_the_oracle_error(self, ids):
        expected = _outcome(oracle_check_ids, ids)
        if expected[0] == "ok":
            return
        for fn in (sus, sus_partition, lds_bruteforce, check_permutation):
            assert _outcome(fn, ids) == expected


class TestCheckPermutation:
    """The pre-checked ``check_permutation`` against the plain validation loop."""

    @pytest.mark.parametrize(
        "ids",
        [
            (),
            (1,),
            (2,),
            (3, 1, 2),
            (9, 1, 2, 3),  # above n first
            (1, 2, 9, 3),  # in the middle
            (1, 2, 3, 9),  # last
            (4, 2, 9, 7),  # several above n
            (1, 3),  # a gap
            (5, 1, 7, 3),  # gaps
            (10**30, 1),
            (2, 1, 2),  # repeats fail in check_ids first
            (0, 1),
        ],
    )
    def test_matches_loop_oracle(self, ids):
        assert _outcome(check_permutation, ids) == _outcome(oracle_check_permutation, ids)

    @given(permutation_strategy, st.data())
    @settings(max_examples=300, deadline=None)
    def test_one_id_above_n(self, perm, data):
        pos = data.draw(st.integers(min_value=0, max_value=len(perm) - 1))
        bad = perm[:pos] + (len(perm) + data.draw(st.integers(1, 5)),) + perm[pos + 1 :]
        expected = _outcome(oracle_check_permutation, bad)
        assert expected[0] == "error"
        assert _outcome(check_permutation, bad) == expected
        assert _outcome(check_permutation, perm) == ("ok", perm)

    @given(idseq_strategy)
    @settings(max_examples=300, deadline=None)
    def test_gapped_ids(self, ids):
        assert _outcome(check_permutation, ids) == _outcome(oracle_check_permutation, ids)


class TestCheckBufferValues:
    """The pre-checked ``check_buffer_values`` against the plain validation loop."""

    @given(rough_series())
    @example(())
    @example((True,))
    @example((0, 3, _IntId(-1)))
    @example((1, 2.0))
    @example((10**30, -(10**30)))
    @settings(max_examples=400, deadline=None)
    def test_matches_loop_oracle(self, values):
        expected = _outcome(oracle_check_buffer_values, values)
        assert _outcome(check_buffer_values, values) == expected
        if expected[0] == "error":
            # the reconstruct path raises it unchanged
            assert _outcome(reconstruct, values) == expected
            assert _outcome(reconstruct_trace, values) == expected


class TestBufferSizes:
    def test_reverse_order(self):
        assert buffer_sizes((4, 3, 2, 1)) == (4, 4, 4, 0)

    def test_in_order(self):
        assert buffer_sizes((1, 2, 3)) == (0, 0, 0)

    def test_fourteen_trace(self):
        assert buffer_sizes(TRACE_14) == (0, 0, 0, 3, 3, 4, 0, 0, 0, 0, 2, 3, 4, 0)

    def test_empty(self):
        assert buffer_sizes(()) == ()

    def test_gaps_allowed(self):
        # lost packets: IDs need not cover 1..n
        assert buffer_sizes((2, 5, 3)) == oracle_m((2, 5, 3))

    def test_duplicate_rejected_with_position(self):
        with pytest.raises(InvalidSequenceError) as exc:
            buffer_sizes((3, 1, 3))
        assert exc.value.position == 3

    def test_nonpositive_rejected_with_position(self):
        with pytest.raises(InvalidSequenceError) as exc:
            buffer_sizes((1, 0))
        assert exc.value.position == 2

    def test_bool_rejected(self):
        with pytest.raises(InvalidSequenceError):
            buffer_sizes((True, 2))

    @given(idseq_strategy)
    @settings(max_examples=200, deadline=None)
    def test_matches_prefix_oracle(self, ids):
        assert buffer_sizes(ids) == oracle_m(ids)


class TestAckSequence:
    def test_reverse_order(self):
        assert ack_sequence((4, 3, 2, 1)) == (1, 1, 1, 5)

    def test_in_order(self):
        assert ack_sequence((1, 2, 3)) == (2, 3, 4)

    def test_fourteen_trace(self):
        assert ack_sequence(TRACE_14) == (2, 3, 4, 4, 4, 4, 8, 9, 10, 11, 11, 11, 11, 15)

    @given(idseq_strategy)
    @settings(max_examples=200, deadline=None)
    def test_matches_prefix_oracle(self, ids):
        assert ack_sequence(ids) == oracle_ack(ids)

    @given(idseq_strategy)
    @settings(max_examples=200, deadline=None)
    def test_nondecreasing(self, ids):
        acks = ack_sequence(ids)
        assert all(a <= b for a, b in zip(acks, acks[1:]))

    @given(permutation_strategy)
    @settings(max_examples=100, deadline=None)
    def test_permutation_endpoints(self, perm):
        n = len(perm)
        assert ack_sequence(perm)[-1] == n + 1
        assert buffer_sizes(perm)[-1] == 0

    @given(idseq_strategy.filter(lambda s: len(s) > 0))
    @settings(max_examples=200, deadline=None)
    def test_highest_seen_identity(self, ids):
        # largest ID seen so far equals ack + buffer - 1 at every step
        acks = ack_sequence(ids)
        sizes = buffer_sizes(ids)
        running_max = 0
        for i, v in enumerate(ids):
            running_max = max(running_max, v)
            assert running_max == acks[i] + sizes[i] - 1


class TestEquivalence:
    def test_fb_pair(self):
        assert fb_equivalent((4, 3, 2, 1), (4, 2, 3, 1))

    def test_fb_reflexive(self):
        assert fb_equivalent((2, 1, 3), (2, 1, 3))

    def test_fb_negative(self):
        assert not fb_equivalent((1, 2), (2, 1))

    def test_behavioral_pair(self):
        assert behaviorally_equivalent((4, 3, 2, 1), (4, 2, 3, 1))

    def test_behavioral_negative(self):
        assert not behaviorally_equivalent((1, 2), (2, 1))

    def test_behavioral_without_fb(self):
        # same ACK series, different buffer series
        a, b = (2, 4, 1, 3), (4, 2, 1, 3)
        assert behaviorally_equivalent(a, b)
        assert not fb_equivalent(a, b)

    def test_length_mismatch_is_false(self):
        assert not fb_equivalent((1,), (1, 2))
        assert not behaviorally_equivalent((1,), (1, 2))

    def test_fb_implies_behavioral_n5(self):
        perms = [tuple(p) for p in permutations(range(1, 6))]
        by_m = {}
        for p in perms:
            by_m.setdefault(buffer_sizes(p), []).append(p)
        for members in by_m.values():
            acks = {ack_sequence(p) for p in members}
            assert len(acks) == 1


def _swapped(ids, k):
    """``ids`` with the IDs at 1-based positions k and k + 1 exchanged."""
    out = list(ids)
    out[k - 1], out[k] = out[k], out[k - 1]
    return tuple(out)


def _ack_only_pair(m, tail):
    """Two traces with one ACK series whose buffer series differ at position m + 1."""
    head, rest = tuple(range(1, m + 1)), tuple(range(m + 5, m + 5 + tail))
    return (*head, m + 2, m + 4, m + 1, m + 3, *rest), (*head, m + 4, m + 2, m + 1, m + 3, *rest)


# both sides of every boundary between the lockstep receivers' chunks 1, 2, 4, ...
SWAP_POSITIONS = (1, 2, 3, 4, 7, 8, 15, 16, 63, 64, 65)


@st.composite
def equivalence_pairs(draw):
    """Equal traces, one adjacent swap, unrelated traces, or one ACK series."""
    kind = draw(st.sampled_from(["equal", "swap", "unrelated", "ack-only"]))
    if kind == "equal":
        ids = draw(permutation_strategy | idseq_strategy)
        return ids, ids
    if kind == "swap":
        k = draw(st.sampled_from(SWAP_POSITIONS))
        n = draw(st.integers(k + 1, k + 40))
        ids = draw(
            st.just(tuple(range(1, n + 1)))
            | st.permutations(range(1, n + 1)).map(tuple)
            | st.lists(st.integers(1, 3 * n), unique=True, min_size=n, max_size=n).map(tuple)
        )
        return ids, _swapped(ids, k)
    if kind == "unrelated":  # unequal lengths, empty traces, gapped IDs
        return draw(idseq_strategy), draw(idseq_strategy | permutation_strategy)
    m, tail = draw(st.integers(0, 70)), draw(st.integers(0, 70))
    a, b = _ack_only_pair(m, tail)
    if tail >= 2 and draw(st.booleans()):  # the ACK series differ later, or not
        b = _swapped(b, m + 4 + draw(st.integers(1, tail - 1)))
    return a, b


def _equiv_cli(a, b, fmt):
    """(exit code, stdout, stderr) of ``reorderlab equiv`` on two traces."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["equiv", "--format", fmt, " ".join(map(str, a)), " ".join(map(str, b))])
    return code, out.getvalue(), err.getvalue()


def _equiv_output(fb, beh, fmt):
    """What ``equiv`` prints for two answers, and its exit code."""
    word = {True: "true", False: "false"}
    out = {
        "text": f"fb-equivalent {word[fb]}\nbehaviorally-equivalent {word[beh]}\n",
        "json": f'{{"behaviorally_equivalent":{word[beh]},"fb_equivalent":{word[fb]}}}\n',
        "csv": f"predicate,value\nfb-equivalent,{word[fb]}\nbehaviorally-equivalent,{word[beh]}\n",
    }[fmt]
    return 0 if fb else 1, out, ""


class TestEquivalences:
    """``_equivalences`` and its callers against two full receiver passes."""

    @given(equivalence_pairs())
    @settings(max_examples=300, deadline=None)
    @example(((2, 4, 1, 3), (4, 2, 1, 3)))
    @example(((), ()))
    @example(((), (1,)))
    @example(_ack_only_pair(70, 70))
    def test_matches_two_full_passes(self, pair):
        a, b = pair
        fb, beh = oracle_equivalences(a, b)
        assert _equivalences(a, b) == _equivalences(list(a), list(b)) == (fb, beh)
        assert fb_equivalent(iter(a), iter(b)) is fb
        assert behaviorally_equivalent(iter(a), iter(b)) is beh
        for fmt in ("text", "json", "csv"):
            assert _equiv_cli(a, b, fmt) == _equiv_output(fb, beh, fmt)

    def test_differences_at_every_chunk_boundary(self):
        for k in SWAP_POSITIONS:
            ids = tuple(range(1, 100))
            assert _equivalences(ids, _swapped(ids, k)) == (False, False)
            a, b = _ack_only_pair(k - 1, 99)
            assert _equivalences(a, b) == (False, True)
            assert _equivalences(a, _swapped(b, k + 90)) == (False, False)


@st.composite
def pairs_with_bad_ids(draw):
    """An in-order trace and a copy swapped at d, with bad IDs in one or both."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, n - 1))  # the first difference
    traces = [list(range(1, n + 1)), list(_swapped(range(1, n + 1), d))]
    for i in draw(st.sampled_from([(0,), (1,), (0, 1)])):
        pos = draw(st.integers(0, n - 1))  # before or after d
        bad = draw(st.sampled_from([0, -1, True, 1.5, "3", "duplicate", "int subclass"]))
        if bad == "duplicate":
            bad = traces[i][draw(st.integers(0, n - 1).filter(lambda j: j != pos))]
        elif bad == "int subclass":
            bad = _IntId(traces[i][pos])  # valid
        traces[i][pos] = bad
    return tuple(traces[0]), tuple(traces[1])


class TestEquivalenceErrors:
    """Errors are those of ``receiver_pass(a)`` followed by ``receiver_pass(b)``.

    ``_outcome`` catches ``InvalidSequenceError`` alone, which has no
    subclass, so an error of any other type fails the test.
    """

    @given(pairs_with_bad_ids())
    @settings(max_examples=400, deadline=None)
    @example(((1, 2, 3, 0), (2, 1, 1, 4)))  # a's error lies past b's and past the cut
    @example(((1, 2, 3, 4), (2, 1, 3, 3)))
    @example(((1, _IntId(2), 3), (2, 1, _IntId(3))))
    def test_library(self, pair):
        expected = _outcome(oracle_equivalences, *pair)
        assert _outcome(_equivalences, *pair) == expected
        for i, fn in enumerate((fb_equivalent, behaviorally_equivalent)):
            answer = expected if expected[0] == "error" else ("ok", expected[1][i])
            assert _outcome(fn, *pair) == answer

    @given(pairs_with_bad_ids().filter(lambda pair: set(map(type, chain(*pair))) == {int}))
    @settings(max_examples=100, deadline=None)
    @example(((1, 2, 3, 0), (2, 1, 1, 4)))
    def test_cli(self, pair):
        outcome = _outcome(oracle_equivalences, *pair)
        for fmt in ("text", "json", "csv"):
            if outcome[0] == "ok":
                assert _equiv_cli(*pair, fmt) == _equiv_output(*outcome[1], fmt)
            else:
                assert _equiv_cli(*pair, fmt) == (EXIT_INPUT, "", f"error: {outcome[1]}\n")


def _feed_spy(monkeypatch):
    """The chunk lengths ``ReceiverState.feed`` is given, per receiver, in call order."""
    chunks = {}
    feed = ReceiverState.feed

    def spy(self, ids):
        chunks.setdefault(id(self), []).append(len(ids))
        return feed(self, ids)

    monkeypatch.setattr(ReceiverState, "feed", spy)
    return chunks


def _check_ids_spy(monkeypatch):
    """The length of each trace ``_equivalences`` validates after its receivers stop."""
    lengths = []
    check = check_ids

    def spy(ids):
        lengths.append(len(ids))
        return check(ids)

    monkeypatch.setattr("reorderlab.buffering.check_ids", spy)
    return lengths


class TestEquivalenceWork:
    """How much of each trace the lockstep receivers are fed."""

    def test_stops_after_one_id_when_both_series_differ(self, monkeypatch):
        n = 10**5
        a, b = tuple(range(1, n + 1)), _swapped(range(1, n + 1), 1)
        chunks, validated = _feed_spy(monkeypatch), _check_ids_spy(monkeypatch)
        assert _equivalences(a, b) == (False, False)
        assert list(chunks.values()) == [[1], [1]]
        assert validated == [n, n]

    def test_runs_on_while_the_ack_series_agree(self, monkeypatch):
        a, b = _ack_only_pair(0, 10**5 - 4)
        chunks, validated = _feed_spy(monkeypatch), _check_ids_spy(monkeypatch)
        assert _equivalences(a, b) == (False, True)
        assert [sum(c) for c in chunks.values()] == [10**5, 10**5]
        assert validated == []

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 8, 63, 64, 10**5])
    def test_equal_traces_feed_each_id_once(self, monkeypatch, n):
        ids = tuple(range(1, n + 1))
        chunks, validated = _feed_spy(monkeypatch), _check_ids_spy(monkeypatch)
        assert _equivalences(ids, ids) == (True, True)
        assert len(chunks) == (2 if n else 0)
        for lengths in chunks.values():
            assert sum(lengths) == n
            assert len(lengths) == n.bit_length()  # ceil(log2(n + 1))
            assert lengths[:-1] == [2**i for i in range(len(lengths) - 1)]
        assert validated == []

    def test_unequal_lengths_feed_nothing(self, monkeypatch):
        chunks, validated = _feed_spy(monkeypatch), _check_ids_spy(monkeypatch)
        assert _equivalences((1, 2, 3), (1, 2)) == (False, False)
        assert _equivalences((), (1,)) == (False, False)
        assert chunks == {}
        assert validated == [3, 2, 0, 1]


class TestAckFromBuffer:
    def test_reverse_order(self):
        assert ack_from_buffer((4, 4, 4, 0)) == (1, 1, 1, 5)

    def test_in_order(self):
        assert ack_from_buffer((0, 0, 0)) == (2, 3, 4)

    def test_grow_then_shrink(self):
        assert ack_from_buffer((3, 4, 3, 0)) == (1, 1, 2, 5)

    def test_empty(self):
        assert ack_from_buffer(()) == ()

    @given(permutation_strategy)
    @settings(max_examples=200, deadline=None)
    def test_recovers_ack_series(self, perm):
        assert ack_from_buffer(buffer_sizes(perm)) == ack_sequence(perm)

    @given(idseq_strategy)
    @settings(max_examples=200, deadline=None)
    def test_recovers_ack_series_with_gaps(self, ids):
        assert ack_from_buffer(buffer_sizes(ids)) == ack_sequence(ids)


class TestEpisodes:
    def test_fourteen_trace(self):
        seg = segment_episodes(TRACE_14)
        assert seg.episodes == (
            Episode(ORDERED, 1, 3),
            Episode(UNORDERED, 4, 7),
            Episode(ORDERED, 8, 10),
            Episode(UNORDERED, 11, 14),
        )
        assert seg.pivots == frozenset({1, 2, 3, 7, 8, 9, 10, 14})
        assert seg.pivot_packets == frozenset({1, 2, 3, 4, 8, 9, 10, 11})

    def test_in_order_all_pivots(self):
        seg = segment_episodes((1, 2, 3))
        assert seg.episodes == (Episode(ORDERED, 1, 3),)
        assert seg.pivots == frozenset({1, 2, 3})

    def test_reverse_order_single_pivot(self):
        seg = segment_episodes((4, 3, 2, 1))
        assert seg.episodes == (Episode(UNORDERED, 1, 4),)
        assert seg.pivots == frozenset({4})

    def test_empty(self):
        seg = segment_episodes(())
        assert seg.episodes == ()
        assert seg.pivots == frozenset()

    def test_state_at(self):
        seg = segment_episodes(TRACE_14)
        assert seg.state_at(1) == ORDERED
        assert seg.state_at(5) == UNORDERED
        assert seg.state_at(14) == UNORDERED
        with pytest.raises(IndexError):
            seg.state_at(15)

    @given(idseq_strategy)
    @settings(max_examples=300, deadline=None)
    def test_matches_per_position_oracle(self, ids):
        seg = segment_episodes(ids)
        assert [tuple(ep) for ep in seg.episodes] == oracle_episodes(ids)
        assert seg.pivot_packets == frozenset(ids[p - 1] for p in seg.pivots)

    @given(idseq_strategy)
    @settings(max_examples=200, deadline=None)
    def test_state_at_matches_linear_scan(self, ids):
        seg = segment_episodes(ids)
        for pos in range(-1, len(ids) + 3):
            covering = [ep.state for ep in seg.episodes if ep.start <= pos <= ep.end]
            if covering:
                assert seg.state_at(pos) == covering[0]
            else:
                with pytest.raises(IndexError, match=f"position {pos} outside"):
                    seg.state_at(pos)

    def test_episodes_partition_positions(self):
        seg = segment_episodes(TRACE_14)
        covered = []
        for ep in seg.episodes:
            covered.extend(range(ep.start, ep.end + 1))
        assert covered == list(range(1, 15))

    @given(idseq_strategy)
    @settings(max_examples=200, deadline=None)
    def test_pivots_are_ack_increases(self, ids):
        seg = segment_episodes(ids)
        acks = ack_sequence(ids)
        prev = 1
        expected = set()
        for pos, a in enumerate(acks, start=1):
            if a > prev:
                expected.add(pos)
            prev = a
        assert seg.pivots == frozenset(expected)


class TestReceiverState:
    def test_incremental_invariants(self):
        rng = random.Random(7)
        ids = list(range(1, 21))
        rng.shuffle(ids)
        state = ReceiverState()
        for v in ids:
            state.observe(v)
            assert state.uploadable <= state.highest_seen
            assert all(k in state.received for k in range(1, state.uploadable + 1))
            assert state.uploadable + 1 not in state.received
        assert state.buffer_size == 0
        assert state.next_ack == 21

    def test_observe_returns_buffer_size(self):
        state = ReceiverState()
        assert [state.observe(v) for v in (4, 3, 2, 1)] == [4, 4, 4, 0]

    @given(rough_traces())
    @settings(max_examples=400, deadline=None)
    def test_matches_oracle_after_every_arrival(self, ids):
        state, oracle = ReceiverState(), OracleReceiverState()
        for v in ids:
            # a bad ID raises on both and leaves both as they were
            assert _outcome(state.observe, v) == _outcome(oracle.observe, v)
            assert _state_view(state) == _state_view(oracle)
            # only IDs above the upload point are kept, and they fit in the buffer
            assert len(state.pending) <= max(state.buffer_size - 1, 0)

    @given(split_traces())
    @settings(max_examples=400, deadline=None)
    def test_chunked_feed_matches_one_pass(self, split):
        ids, chunks = split
        state = ReceiverState()

        def feed_chunks():
            sizes, uploads = [], []
            for chunk in chunks:
                more_sizes, more_uploads = state.feed(iter(chunk))
                sizes += more_sizes
                uploads += more_uploads
            return sizes, uploads

        outcome = _outcome(feed_chunks)
        # same series, or the same error at the same global position
        assert outcome == _outcome(receiver_pass, ids)
        fresh = ReceiverState()
        fresh.feed(ids if outcome[0] == "ok" else ids[: outcome[2] - 1])
        assert _state_view(state) == _state_view(fresh)

    def test_in_order_memory_is_bounded(self):
        state = ReceiverState()
        tracemalloc.start()
        try:
            for v in range(1, 100_001):
                state.observe(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (state.arrivals, state.buffer_size, state.pending) == (100_000, 0, set())
        assert peak < 1 << 20


class TestValidation:
    def test_check_ids_passthrough(self):
        assert check_ids([5, 1, 9]) == (5, 1, 9)

    def test_check_permutation_accepts(self):
        assert check_permutation((2, 1, 3)) == (2, 1, 3)

    def test_check_permutation_rejects_gap(self):
        with pytest.raises(InvalidSequenceError) as exc:
            check_permutation((1, 3))
        assert exc.value.position == 2
