"""Differential test of the CLI's text and csv output against the old renderer.

Every subcommand's stdout bytes and exit code, in text and csv, must equal
what ``_oracles.oracle_render`` writes from the same library results with
``str`` per value and ``csv.writer``.  Traces include the empty one, gapped
IDs, IDs above 2**63 and malformed ones (repeats, zero), which must print
nothing.  The witness branches of ``verify`` and ``consistency``, which no
correct engine reaches, run through engines patched in their defining
modules, from which the handlers import them when they run.
"""

import argparse
import io
import math
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from reorderlab import (
    CapacityExceededError,
    ReorderError,
    ack_sequence,
    buffer_sizes,
    consistency_counterexample,
    mean_buffer_size,
    rcv_window_series,
    reconstruct,
    reorder_density,
    segment_episodes,
    sus_partition,
    verify_identities,
    verify_theorem,
)
from reorderlab.buffering import receiver_pass
from reorderlab.cli import EXIT_INPUT, EXIT_NEGATIVE, build_parser, main
from reorderlab.oracle import IdentityViolation

from _oracles import (
    oracle_consistency_views,
    oracle_episodes_views,
    oracle_equiv_views,
    oracle_reconstruct_views,
    oracle_rd_views,
    oracle_render,
    oracle_series_views,
    oracle_sus_views,
    oracle_verify_views,
)

FORMATS = ("text", "csv")

traces = st.one_of(
    st.integers(0, 10).flatmap(lambda n: st.permutations(range(1, n + 1))),
    st.lists(st.integers(1, 40), unique=True, max_size=12),  # gapped IDs
    st.lists(st.integers(2**63 - 4, 2**63 + 30) | st.integers(1, 6), unique=True, max_size=8),
    st.lists(st.integers(0, 6), max_size=8),  # repeats and zeros: malformed
)
series = st.one_of(
    st.integers(0, 10).flatmap(lambda n: st.permutations(range(1, n + 1))).map(buffer_sizes),
    st.lists(st.integers(0, 6), max_size=8),  # mostly no preimage
)
perms = st.lists(st.integers(1, 2**64), max_size=6).map(tuple)
pairs = st.none() | st.tuples(perms, perms)
violations = st.none() | st.builds(
    IdentityViolation,
    perms,
    st.sampled_from(["highest-vs-ack", "sus-vs-lds", "ack-from-buffer", "reconstruct-round-trip"]),
)


def run(argv):
    """(exit code, stdout) of one in-process run."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def expect(views, fmt):
    """What the old renderer writes for ``views()``, or an error's exit code and no output."""
    try:
        return oracle_render(views(), fmt)
    except CapacityExceededError:
        return EXIT_NEGATIVE, ""
    except ReorderError:
        return EXIT_INPUT, ""


def check(argv, views):
    for fmt in FORMATS:
        assert run([*argv, "--format", fmt]) == expect(views, fmt), (argv, fmt)


def words(ids):
    return " ".join(map(str, ids))


# the trace commands' options and their old views of a trace's library result
VIEWS = {
    "map": lambda ids: oracle_series_views(buffer_sizes(ids)),
    "ack": lambda ids: oracle_series_views(ack_sequence(ids)),
    "sus": lambda ids: oracle_sus_views(sus_partition(ids)),
    "episodes": lambda ids: oracle_episodes_views(ids, segment_episodes(ids)),
}
for size in (0, 2, 50):
    VIEWS[f"rcvwindow --rcv-buffer {size}"] = lambda ids, size=size: oracle_series_views(
        rcv_window_series(ids, size).values
    )
for dt in (1, 2, math.inf):
    VIEWS[f"rd --dt {dt}"] = lambda ids, dt=dt: oracle_rd_views(reorder_density(ids, dt))


class TestTraceCommands:
    @given(st.sampled_from(sorted(VIEWS)), traces)
    @settings(max_examples=300, deadline=None)
    @example("episodes", ())
    @example("episodes", (2**64 + 1, 3, 2**63 + 2, 1, 2))
    @example("episodes", (2, 1))
    @example("episodes", (1, 3, 2))
    @example("episodes", (3, 2, 1))
    @example("episodes", (2, 1, 3, 4))
    @example("sus", (2**64 + 1, 3, 2**63 + 2))
    def test_matches_old_renderer(self, command, ids):
        check([*command.split(), words(ids)], lambda: VIEWS[command](ids))

    @given(traces, traces)
    @settings(max_examples=100, deadline=None)
    def test_equiv(self, a, b):
        def views():
            (sizes_a, uploads_a), (sizes_b, uploads_b) = receiver_pass(a), receiver_pass(b)
            return oracle_equiv_views(sizes_a == sizes_b, uploads_a == uploads_b)

        check(["equiv", words(a), words(b)], views)

    @given(series)
    @settings(max_examples=100, deadline=None)
    @example(buffer_sizes((5, 4, 3, 2, 1)))  # SUS 5
    @example(buffer_sizes((6, 2, 7, 3, 1, 5, 4)))  # SUS 4
    @example(())
    def test_reconstruct(self, values):
        check(["reconstruct", words(values)], lambda: oracle_reconstruct_views(reconstruct(values)))


class TestEngineCommands:
    @given(st.integers(1, 9), pairs, violations)
    @settings(max_examples=100, deadline=None)
    def test_verify_witnesses(self, n, theorem, identities):
        with (
            mock.patch("reorderlab.oracle.verify_theorem", lambda n: theorem),
            mock.patch("reorderlab.oracle.verify_identities", lambda n: identities),
        ):
            check(["verify", "--n", str(n)], lambda: oracle_verify_views(n, theorem, identities))

    @given(st.sampled_from([["--metric", "mean-buffer"], ["--metric", "rd", "--dt", "2"]]), pairs)
    @settings(max_examples=100, deadline=None)
    def test_consistency_witnesses(self, metric, witness):
        with mock.patch("reorderlab.metrics.consistency_counterexample", lambda metric, n: witness):
            check(["consistency", *metric, "--n", "4"], lambda: oracle_consistency_views(witness))

    def test_real_engines(self):
        for n in range(1, 6):
            views = oracle_verify_views(n, verify_theorem(n), verify_identities(n))
            check(["verify", "--n", str(n)], lambda: views)
        for dt in (1, math.inf):
            witness = consistency_counterexample(lambda p: reorder_density(p, dt), 4)
            argv = ["consistency", "--metric", "rd", "--dt", str(dt), "--n", "4"]
            check(argv, lambda: oracle_consistency_views(witness))
        witness = consistency_counterexample(mean_buffer_size, 4)
        argv = ["consistency", "--metric", "mean-buffer", "--n", "4"]
        check(argv, lambda: oracle_consistency_views(witness))


def test_every_subcommand_covered():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    tested = {command.split()[0] for command in VIEWS}
    assert tested | {"equiv", "reconstruct", "verify", "consistency"} == set(sub.choices)
