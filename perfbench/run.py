"""Seeded end-to-end and per-layer benchmark of the ``reorderlab`` CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mild --seed 1 --seconds 50 --trace 0

The benchmark generates the workload's inputs from the seed, computes the
expected outputs itself (``reference.py``; it never calls the package for
them), then measures for ``--seconds``:

- ``--trace 0``: a closed loop with one client.  Each command runs as
  ``python3 -m reorderlab ...`` from ``src``, one child at a time; the next
  starts after the previous child's stdout and stderr are read to EOF and
  it has been reaped with ``os.wait4`` (which gives that child's peak RSS).
  After an untimed warm-up pass, the command with the least measured time
  so far runs next, so every command is sampled across the whole run.  On a
  shared 2-core Xeon virtual machine the CPU speed moved by up to 1.3x from
  run to run and flipped between states 1.45x apart within a run (child CPU
  time tracked wall time), so a fixed pure-Python loop, ``calibrate()``,
  runs after every child on the same CPU, and a command's time is its mean
  over the run scaled by ``CAL_REF_S`` over the loop's mean time: seconds
  at a fixed reference speed.  This cut the spread between the quartiles
  of ten runs from up to 0.3 of their median to at most 0.1.  ``setup_s``
  is the median of the ``map 1`` samples, scaled the same way.
- ``--trace 1``: the same commands in process, with spans wrapped around the
  package's public functions from outside (``layers.py``).

Every output is checked.  A wrong stdout or exit code, or anything on stderr,
is a failed operation.  Human-readable lines come first; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exits 2 without a result when the checkout has no ``src/reorderlab``.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

sys.dont_write_bytecode = True

import layers  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HARD_LIMIT_S = 150  # no command starts, and any running one is killed, after this
CAL_REF_S = 0.015  # nominal time of calibrate(); end-to-end times are scaled to it
E2E_UNITS = {name: "s" for name in workloads.TIME_METRICS}
E2E_UNITS.update(ids_per_s="1/s", peak_rss_mb="MB")


def log(line: str) -> None:
    print(line, flush=True)


class ChildResult(NamedTuple):
    wall: float
    code: int
    out: str
    err: str
    rss_mb: float


def run_child(argv, stdin_bytes, env, cwd, deadline) -> ChildResult:
    """Run one child, feed its stdin, drain stdout/stderr to EOF, reap it with wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        stdin=subprocess.PIPE if stdin_bytes is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=cwd,
    )
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks = {out_fd: [], err_fd: []}
    sel = selectors.DefaultSelector()
    for fd in chunks:
        sel.register(fd, selectors.EVENT_READ)
    pending = memoryview(stdin_bytes or b"")
    if stdin_bytes is not None:
        os.set_blocking(proc.stdin.fileno(), False)
        sel.register(proc.stdin.fileno(), selectors.EVENT_WRITE)
    killed = False
    try:
        while sel.get_map():
            timeout = deadline - time.monotonic()
            if timeout <= 0:
                proc.kill()
                killed = True
                break
            for key, _ in sel.select(timeout):
                fd = key.fd
                if fd in chunks:
                    data = os.read(fd, 1 << 16)
                    if data:
                        chunks[fd].append(data)
                    else:
                        sel.unregister(fd)
                    continue
                try:
                    written = os.write(fd, pending[: 1 << 16])
                except BlockingIOError:
                    continue
                except BrokenPipeError:
                    written = len(pending)
                pending = pending[written:]
                if not pending:
                    sel.unregister(fd)
                    proc.stdin.close()
    except BaseException:
        proc.kill()
        raise
    finally:
        sel.close()
        if proc.stdin and not proc.stdin.closed:
            proc.stdin.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    out, err = b"".join(chunks[out_fd]), b"".join(chunks[err_fd])
    if killed:
        err += b"\nkilled: benchmark time limit reached"
    return ChildResult(
        wall, proc.returncode, out.decode(errors="replace"), err.decode(errors="replace"),
        usage.ru_maxrss / 1024,
    )


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop: parse, scan and format 25 000 integers."""
    t = time.perf_counter()
    text = "\n".join(map(str, range(25_000)))
    vals = [int(x) for x in text.split()]
    acc = 0
    for v in vals:
        acc = (acc + v * v) % 1_000_003
    ",".join([str(v) for v in vals])
    return time.perf_counter() - t


def end_to_end(workload, seconds, workdir):
    """Run the workload's commands as children; return (metrics, attempted, failed).

    One untimed warm-up pass runs every command once (it fills the bytecode
    cache and is checked like any other).  Then, until ``seconds`` are up,
    the next command is always the one with the least measured time so far,
    so each command gets an equal share of the run whatever its length.
    ``calibrate()`` runs in this process after every child, on the same CPU.
    """
    # children get buffered stdout and cached bytecode, as an installed CLI
    # would, whatever PYTHON* settings the benchmark itself runs under
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(
        PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(workdir / "pycache"), PYTHONHASHSEED="0"
    )
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # children inherit it
    commands = list({cmd.key: cmd for cmd in workload.commands}.values())
    samples = {cmd.key: [] for cmd in commands}
    rss = {cmd.key: [] for cmd in commands}
    spent = dict.fromkeys(samples, 0.0)
    calibrations = []
    attempted = failed = 0
    start = time.monotonic()
    hard_deadline = start + HARD_LIMIT_S
    warmup = list(commands)
    deadline = None
    # every command is timed at least once, however short the run
    while warmup or time.monotonic() < deadline or not all(samples.values()):
        if time.monotonic() >= hard_deadline:
            log("FAIL hard time limit reached")
            failed += 1
            break
        cmd = warmup.pop(0) if warmup else min(commands, key=lambda c: spent[c.key])
        if cmd.key == "classes":
            argv = [sys.executable, "-c", workloads.CLASSES_SNIPPET, *cmd.argv]
        else:
            argv = [sys.executable, "-m", "reorderlab", *cmd.argv]
        stdin = cmd.stdin.read_bytes() if cmd.stdin else None
        res = run_child(argv, stdin, env, workdir, hard_deadline)
        attempted += 1
        why = cmd.judge(res.code, res.out, res.err)
        if why:
            failed += 1
            log(f"FAIL {cmd.key}: {why}")
        if deadline is None:
            if not warmup:
                deadline = time.monotonic() + seconds
            continue
        calibrations.append(calibrate())
        samples[cmd.key].append(res.wall)
        spent[cmd.key] += res.wall
        rss[cmd.key].append(res.rss_mb)
    # seconds at the reference speed (see the module docstring)
    speed = CAL_REF_S / statistics.fmean(calibrations)
    mean = {key: statistics.fmean(v) * speed for key, v in samples.items()}
    mean["setup"] = statistics.median(samples["setup"]) * speed
    metrics = {
        name: sum(mean[k] for k in keys) for name, keys in workloads.TIME_METRICS.items()
    }
    trace_cmds = {cmd.key: cmd.ids for cmd in commands if cmd.ids and cmd.key != "setup"}
    metrics["ids_per_s"] = sum(trace_cmds.values()) / sum(mean[k] for k in trace_cmds)
    # a child's peak RSS moves with pipe-read timing, so take each command's median
    metrics["peak_rss_mb"] = max(statistics.median(v) for v in rss.values() if v)
    log(
        f"calibration: n={len(calibrations)} min={min(calibrations) * 1000:.3f}ms"
        f" mean={statistics.fmean(calibrations) * 1000:.3f}ms max={max(calibrations) * 1000:.3f}ms"
        f" (reference {CAL_REF_S * 1000:.0f}ms) speed={speed:.4f}"
    )
    for key, v in samples.items():
        log(
            f"samples {key}: n={len(v)} raw min={min(v):.4f}s median={statistics.median(v):.4f}s"
            f" mean={statistics.fmean(v):.4f}s max={max(v):.4f}s scaled mean={mean[key]:.4f}s"
        )
    log(f"error_rate {failed / attempted:.6f} (failed {failed} of {attempted} operations)")
    return metrics, attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "reorderlab" / "__init__.py").is_file():
        print(f"error: no reorderlab sources under {SRC}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        workload = workloads.build(args.workload, args.seed, workdir)
        log(f"workload {args.workload} seed {args.seed}: " + json.dumps(workload.properties))
        if args.trace:
            metrics, attempted, failed = layers.traced_run(workload, SRC, args.seconds, log)
            units = layers.UNITS
        else:
            metrics, attempted, failed = end_to_end(workload, args.seconds, workdir)
            units = E2E_UNITS
    for name, value in metrics.items():
        log(f"metric {name} {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
