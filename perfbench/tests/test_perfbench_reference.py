"""Cross-checks of the benchmark's reference results and span recorder.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

The references in ``perfbench/reference.py`` are compared with the
brute-force oracles in ``tests/_oracles.py`` on small seeded traces, and a
tiny workload is run through the package in process to show that every
expected output matches the CLI byte for byte.
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import permutations
from pathlib import Path
from random import Random

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests"), str(ROOT / "src")]

import _oracles  # noqa: E402
import layers  # noqa: E402
import reference as ref  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def seeded_traces():
    """Small permutations, gapped traces and the two generator kinds."""
    for seed in range(40):
        rng = Random(seed)
        n = rng.randrange(1, 14)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        yield perm
        yield rng.sample(range(1, 3 * n + 1), n)  # distinct IDs with gaps
        yield workloads.mild_trace(n, rng)
        yield list(_oracles.interleave_runs(n, 3, rng))


@pytest.mark.parametrize("ids", list(seeded_traces()))
def test_series_match_prefix_oracles(ids):
    buf, ack = ref.buffer_and_ack(ids)
    assert tuple(buf) == _oracles.oracle_m(ids)
    assert tuple(ack) == _oracles.oracle_ack(ids)


@pytest.mark.parametrize("ids", list(seeded_traces()))
def test_episodes_follow_the_oracle_series(ids):
    m = (0,) + _oracles.oracle_m(ids)
    acks = (1,) + _oracles.oracle_ack(ids)
    runs, pivots, states = ref.episodes(ids, *ref.buffer_and_ack(ids))
    assert states == ["O" if m[i] == 0 and m[i - 1] == 0 else "U" for i in range(1, len(m))]
    assert pivots == [i for i in range(1, len(m)) if acks[i] > acks[i - 1]]
    assert [s for s, a, b in runs for _ in range(a, b + 1)] == states
    assert all(x[0] != y[0] for x, y in zip(runs, runs[1:]))


def first_fit(ids):
    lists = []
    for p in ids:
        for lst in lists:
            if lst[-1] < p:
                lst.append(p)
                break
        else:
            lists.append([p])
    return lists


@pytest.mark.parametrize("ids", list(seeded_traces()))
def test_sus_lists_are_first_fit_and_count_the_lds(ids):
    lists = ref.sus_lists(ids)
    assert lists == first_fit(ids)
    assert len(lists) == _oracles.oracle_lds_exhaustive(ids)


def test_sus_lists_match_the_package_byte_for_byte():
    from reorderlab import sus_partition

    rng = Random(7)
    for n in (1, 50, 2000):
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        assert ref.render_sus(ref.sus_lists(perm)) == ref.render_sus(sus_partition(perm).lists)


@pytest.mark.parametrize("ids", [p for p in seeded_traces() if sorted(p) == list(range(1, len(p) + 1))])
def test_rd_counts_match_oracle(ids):
    counts, total = _oracles.oracle_rd_counts(ids, len(ids) + 1)
    assert dict(ref.rd_counts(ids)) == counts
    assert total == len(ids)


def test_reconstruction_check_accepts_sus3_preimages_and_rejects_others():
    rng = Random(3)
    for n in range(1, 30):
        perm = _oracles.interleave_runs(n, 3, rng)
        buf = ref.buffer_and_ack(perm)[0]
        assert ref.check_reconstruction(" ".join(map(str, perm)) + "\n", buf) is None
    assert ref.check_reconstruction("4 3 2 1\n", [4, 4, 4, 0]) == "SUS above 3"
    assert ref.check_reconstruction("1 2\n", [1, 0]) == "buffer series differs from the input"
    assert ref.check_reconstruction("1 1\n", [0, 0]) == "not a permutation of 1..n"
    assert ref.check_reconstruction("NO PERMUTATION EXISTS\n", [0]) is not None


def test_a005802_populations():
    assert [ref.a005802(n) for n in (7, 8, 9)] == [2761, 15767, 94359]
    for n in range(1, 7):
        low = sum(1 for p in permutations(range(1, n + 1)) if _oracles.oracle_lds_exhaustive(p) <= 3)
        assert low == ref.a005802(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_class_count_is_the_sus3_population(n):
    count, largest, multi, collisions = ref.class_report(n)
    assert count == ref.a005802(n)
    assert collisions == 0
    assert largest >= 1 and multi <= count


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """A small workload of each trace kind, with the engines at n <= 5."""
    monkeypatch.setitem(workloads.WORKLOADS, "tiny-mild", ("mild", 400, 300, 5, 4, 5, 5))
    monkeypatch.setitem(workloads.WORKLOADS, "tiny-random", ("random", 300, 200, 5, 4, 5, 5))
    out = []
    for name in ("tiny-mild", "tiny-random"):
        d = tmp_path / name
        d.mkdir()
        out.append(workloads.build(name, 5, d))
    return out


def test_package_output_matches_every_reference(tiny):
    inproc = layers.InProcess(ROOT / "src")
    for workload in tiny:
        for cmd in workload.commands:
            wall, code, out, err = inproc.run(cmd)
            assert cmd.judge(code, out, err) is None, (workload.name, cmd.key)


def test_wrong_output_is_judged_a_failure(tiny):
    cmd = next(c for c in tiny[0].commands if c.key == "map")
    assert cmd.judge(0, cmd.expected + "0\n", "") is not None
    assert cmd.judge(1, cmd.expected, "") is not None
    assert cmd.judge(0, cmd.expected, "Traceback (most recent call last):\n") is not None
    recon = next(c for c in tiny[1].commands if c.key == "reconstruct")
    assert recon.judge(1, "NO PERMUTATION EXISTS\n", "") is not None


def test_spans_wrap_every_binding_and_uninstall_cleanly(tiny):
    import reorderlab
    from reorderlab import buffering, cli, metrics, oracle

    reconstruct = sys.modules["reorderlab.reconstruct"]

    originals = [m.buffer_sizes for m in (buffering, cli, metrics, oracle, reorderlab)]
    recorder = spans.Recorder()
    undo, missing = spans.install(recorder, "reorderlab", layers.TARGETS)
    assert missing == []
    try:
        wrapped = {id(m.buffer_sizes) for m in (buffering, cli, metrics, oracle, reconstruct)}
        assert len(wrapped) == 1 and id(originals[0]) not in wrapped
        assert reorderlab.buffer_sizes((4, 3, 2, 1)) == (4, 4, 4, 0)
    finally:
        spans.uninstall(undo)
    assert [m.buffer_sizes for m in (buffering, cli, metrics, oracle, reorderlab)] == originals
    tree = recorder.reset()
    node = tree.children["buffering.buffer_sizes"]
    assert node.count == 1 and node.counters["ids"] == 4


def test_traced_counts_repeat_exactly(tiny):
    inproc = layers.InProcess(ROOT / "src")
    recorder = spans.Recorder()
    seen = []
    for _ in range(2):
        secs, counts = Counter(), Counter()
        for cmd in tiny[1].commands:
            undo, _ = spans.install(recorder, "reorderlab", layers.TARGETS)
            try:
                inproc.run(cmd)
            finally:
                spans.uninstall(undo)
            layers.tally(secs, counts, recorder.reset(), cmd)
        assert all(v >= 0 for v in secs.values())
        seen.append(counts)
    assert seen[0] == seen[1]
    assert seen[0]["sus3_members"] == ref.a005802(5) + ref.a005802(4)
    assert seen[0]["state_at_calls"] == 200
