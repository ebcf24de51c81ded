"""Seeded inputs, command lists and expected outputs for each workload.

A workload is a trace part (ten trace commands on a generated trace) plus an
engine part (the exhaustive sweeps at fixed n).  Every workload runs both
parts, so every end-to-end metric is measured on each; each part is large on
one workload and small on the other, so every layer has a workload that
exercises it and one that bypasses it:

- ``mild``: adjacent swaps of 1..100000, engines at n <= 6.  Parse,
  validation, the per-ID receiver kernel and text emit dominate; the upload
  point advances on almost every arrival.
- ``random``: a uniform permutation of 1..60000, engines at n = 8/7/7/8.
  The receiver holds O(n) state, the greedy list scan in ``sus_partition``
  dominates the trace part and emit formats bigger integers; the engines
  call the kernel ~10^4-10^5 times on n <= 8, so per-call cost dominates
  them.

Sizes are set so that no command takes much over a second: each gets an
equal share of the run, and short commands give it many samples spread
over the whole run (``run.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import reference as ref

# name: (trace kind, trace length, prefix length, theorem-sweep n, identity-sweep n,
#        consistency n, classes n).  `episodes --format csv` runs on the prefix
# only: its per-position state_at scan is quadratic.
WORKLOADS = {
    "mild": ("mild", 100_000, 10_000, 6, 5, 6, 6),
    "random": ("random", 60_000, 10_000, 8, 7, 7, 8),
}

# End-to-end time metrics and the commands whose times (see run.py) they sum.
TIME_METRICS = {
    "setup_s": ("setup",),
    "series_s": ("map", "ack", "rcvwindow"),
    "episodes_s": ("episodes",),
    "episodes_csv_s": ("episodes_csv",),
    "sus_s": ("sus",),
    "rd_s": ("rd",),
    "equiv_s": ("equiv",),
    "reconstruct_s": ("reconstruct",),
    "verify_s": ("verify_theorem", "verify_identities"),
    "consistency_s": ("consistency",),
    "classes_s": ("classes",),
}

CLASSES_SNIPPET = (
    "import sys\n"
    "from reorderlab import enumerate_classes\n"
    "r = enumerate_classes(int(sys.argv[1]))\n"
    "print(r.class_count, r.max_class_size, r.multi_member_count, r.sus3_collision_count)\n"
)


def mild_trace(n: int, rng: random.Random) -> list[int]:
    """1..n with each adjacent pair swapped with probability 0.1, swaps not overlapping."""
    ids = list(range(1, n + 1))
    i = 0
    while i < n - 1:
        if rng.random() < 0.1:
            ids[i], ids[i + 1] = ids[i + 1], ids[i]
            i += 2
        else:
            i += 1
    return ids


def random_trace(n: int, rng: random.Random) -> list[int]:
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    return ids


GENERATORS = {"mild": mild_trace, "random": random_trace}


@dataclass
class Command:
    """One operation of a workload, with what its stdout and exit code must be.

    ``argv`` follows ``reorderlab`` on the command line, except for the
    ``classes`` library call, whose only argument is n.  ``expected`` is the
    exact stdout, or None when ``check`` judges the output instead.
    """

    key: str
    argv: list[str]
    expected: str | None
    code: int = 0
    fmt: str = "text"
    ids: int = 0  # trace IDs fed to the command
    stdin: Path | None = None
    check: Callable[[str], str | None] | None = None
    verified: set = field(default_factory=set)

    def judge(self, code: int, out: str, err: str) -> str | None:
        """Why this result is wrong, or None when it is correct."""
        if code != self.code:
            return f"exit code {code}, expected {self.code}"
        if err:
            return "stderr: " + err.strip().splitlines()[-1][:200]
        if self.expected is not None:
            return None if out == self.expected else "stdout differs from the reference"
        if out in self.verified:
            return None
        why = self.check(out)
        if why is None:
            self.verified.add(out)
        return why


@dataclass
class Workload:
    name: str
    commands: list[Command]  # one round, in order
    properties: dict


def write_ids(path: Path, ids) -> None:
    path.write_text("".join(f"{v}\n" for v in ids))


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the inputs for ``seed`` under ``workdir`` and the commands that use them."""
    kind, n, prefix_n, theorem_n, identity_n, consistency_n, classes_n = WORKLOADS[name]
    gen = GENERATORS[kind]
    ids = gen(n, random.Random(seed))
    other = gen(n, random.Random(seed + 1))
    prefix = ids[:prefix_n]

    trace, other_path, prefix_path, series_path = (
        workdir / f for f in ("trace.txt", "other.txt", "prefix.txt", "series.txt")
    )
    write_ids(trace, ids)
    write_ids(other_path, other)
    write_ids(prefix_path, prefix)

    buf, ack = ref.buffer_and_ack(ids)
    write_ids(series_path, buf)
    runs, pivots, _ = ref.episodes(ids, buf, ack)
    prefix_runs, prefix_pivots, prefix_states = ref.episodes(prefix, *ref.buffer_and_ack(prefix))
    lists = ref.sus_lists(ids)
    obuf, oack = ref.buffer_and_ack(other)
    max_buf = max(buf)
    # a trace with SUS <= 3 is the unique preimage of its series; otherwise any
    # SUS <= 3 preimage is right, so the output is checked rather than compared
    recon = Command("reconstruct", ["reconstruct", "-"], None, ids=n, stdin=series_path)
    if len(lists) <= 3:
        recon.expected = " ".join(map(str, ids)) + "\n"
    else:
        recon.check = lambda out: ref.check_reconstruction(out, buf)

    t, o, p = str(trace), str(other_path), str(prefix_path)
    setup = Command("setup", ["map", "1"], "0\n", ids=1)
    commands = [
        setup,
        Command("map", ["map", t], ref.render_lines(buf), ids=n),
        Command("ack", ["ack", "--format", "csv", t], ref.render_csv_series(ack), fmt="csv", ids=n),
        Command(
            "rcvwindow",
            ["rcvwindow", "--rcv-buffer", str(max_buf), "--format", "json", t],
            ref.render_json({"rcv_buffer": max_buf, "values": [max_buf - m for m in buf]}),
            fmt="json",
            ids=n,
        ),
        Command("episodes", ["episodes", t], ref.render_episodes_text(runs, pivots, ids), ids=n),
        setup,
        Command(
            "episodes_csv",
            ["episodes", "--format", "csv", p],
            ref.render_episodes_csv(prefix, prefix_states, prefix_pivots),
            fmt="csv",
            ids=len(prefix),
        ),
        Command("sus", ["sus", t], ref.render_sus(lists), ids=n),
        Command("rd", ["rd", "--dt", "inf", t], ref.render_rd(ref.rd_counts(ids), n), ids=n),
        Command(
            "equiv",
            ["equiv", t, o],
            ref.render_equiv(buf == obuf, ack == oack),
            code=0 if buf == obuf else 1,
            ids=2 * n,
        ),
        recon,
        Command("verify_theorem", ["verify", "--n", str(theorem_n)], ref.render_verify(theorem_n)),
        Command("verify_identities", ["verify", "--n", str(identity_n)], ref.render_verify(identity_n)),
        Command(
            "consistency",
            ["consistency", "--metric", "mean-buffer", "--n", str(consistency_n)],
            "consistent\n",
        ),
    ]
    report = ref.class_report(classes_n)
    if report[0] != ref.a005802(classes_n) or report[3] != 0:
        raise AssertionError(f"reference class report {report} contradicts A005802({classes_n})")
    commands.append(Command("classes", [str(classes_n)], " ".join(map(str, report)) + "\n"))
    u_positions = sum(b - a + 1 for s, a, b in runs if s == "U")
    properties = {
        "ids": n,
        "max_buffer": max_buf,
        "sus": len(lists),
        "episodes": len(runs),
        "u_share": round(u_positions / n, 4),
        "prefix_episodes": len(prefix_runs),
    }
    return Workload(name, commands, properties)
