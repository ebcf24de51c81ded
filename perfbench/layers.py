"""Traced in-process run: per-layer times and counts from wrapped functions.

Each command runs as ``reorderlab.cli.main(argv)`` in this process with
``sys.stdin``/``sys.stdout``/``sys.stderr`` swapped for buffers (``print``
and ``csv.writer`` resolve ``sys.stdout`` at call time).  Every command runs
twice per round, once with the wrappers installed and once without; the
ratio of the two wall times is the tracing overhead.
"""

from __future__ import annotations

import io
import sys
import time
from collections import Counter
from math import factorial

import reference as ref
import spans


def _ids(args, result):
    return {"ids": len(result)}


def _episodes(args, result):
    eps = result.episodes
    return {"ids": eps[-1].end if eps else 0, "episodes": len(eps)}


def _recon(args, result):
    return {
        "positions": len(result.buffer_values),
        "phase2": len(result.phase2_positions),
        "ok": result.permutation is not None,
    }


def _perms(args, result):
    return {"perms": factorial(args[-1])}


# Every public function of the analysis modules is wrapped, so that the self
# time of cli.main is argument parsing plus output formatting: the emit layer.
# A hook turns a call's arguments and result into counters.
TARGETS = {
    "cli.main": None,
    "cli.build_parser": None,
    "cli.resolve_trace": _ids,
    "cli.parse_trace": _ids,
    "buffering.check_ids": _ids,
    "buffering.check_permutation": None,
    "buffering.check_buffer_values": None,
    "buffering.buffer_sizes": _ids,
    "buffering.ack_sequence": _ids,
    "buffering.ack_from_buffer": None,
    "buffering.fb_equivalent": None,
    "buffering.behaviorally_equivalent": None,
    "buffering.segment_episodes": _episodes,
    "buffering.EpisodeSegmentation.state_at": None,
    "disorder.sus_partition": lambda args, result: {"lists": len(result.lists)},
    "disorder.sus": lambda args, result: {"le3": result <= 3},
    "disorder.lds_bruteforce": None,
    "reconstruct.reconstruct": None,
    "reconstruct.reconstruct_trace": _recon,
    "metrics.reorder_density": None,
    "metrics.rcv_window_series": None,
    "metrics.mean_buffer_size": None,
    "metrics.consistency_counterexample": _perms,
    "oracle.enumerate_classes": _perms,
    "oracle.verify_theorem": _perms,
    "oracle.verify_identities": _perms,
}

ENGINES = {
    "oracle.enumerate_classes",
    "oracle.verify_theorem",
    "oracle.verify_identities",
    "metrics.consistency_counterexample",
}
KERNEL = {"buffering.buffer_sizes", "buffering.ack_sequence"}
ENGINE_KERNEL = KERNEL | {"disorder.sus"}
VALIDATORS = {"buffering.check_ids", "buffering.check_permutation", "buffering.check_buffer_values"}
RECEIVER_PASSES = KERNEL | {"buffering.segment_episodes"}
RECON_CHECKS = {"buffering.buffer_sizes", "disorder.sus"}

# Per-layer metric: unit.  A time is its fastest traced round;
# the rest are exact counts and their ratios, taken from the first round.
UNITS = {
    "cli.resolve_s": "s",
    "cli.parse_s": "s",
    "cli.parse_ids_per_s": "1/s",
    "cli.emit_text_s": "s",
    "cli.emit_csv_s": "s",
    "cli.emit_json_s": "s",
    "cli.stdout_bytes": "bytes",
    "buffering.validate_s": "s",
    "buffering.validations_per_id": "ratio",
    "buffering.kernel_s": "s",
    "buffering.kernel_ids_per_s": "1/s",
    "buffering.kernel_passes_per_id": "ratio",
    "buffering.episodes_s": "s",
    "buffering.state_at_s": "s",
    "buffering.state_at_calls": "count",
    "buffering.episode_count": "count",
    "disorder.sus_partition_s": "s",
    "disorder.sus_lists": "count",
    "disorder.lds_bruteforce_s": "s",
    "disorder.sus_calls": "count",
    "reconstruct.trace_s": "s",
    "reconstruct.check_s": "s",
    "reconstruct.phase2_share": "ratio",
    "reconstruct.success_ratio": "ratio",
    "metrics.rd_s": "s",
    "metrics.rcvwindow_s": "s",
    "metrics.consistency_s": "s",
    "oracle.theorem_s": "s",
    "oracle.identities_s": "s",
    "oracle.classes_s": "s",
    "oracle.kernel_share": "ratio",
    "oracle.perms_per_s": "1/s",
    "oracle.sus_calls": "count",
    "oracle.kernel_calls": "count",
    "oracle.sus3_members": "count",
    "trace.overhead": "ratio",
}

SELF_TIMES = {
    "cli.resolve_trace": "resolve",
    "cli.parse_trace": "parse",
    "buffering.segment_episodes": "episodes",
    "buffering.EpisodeSegmentation.state_at": "state_at",
    "disorder.sus_partition": "sus_partition",
    "disorder.lds_bruteforce": "lds",
    "reconstruct.reconstruct_trace": "recon",
    "metrics.reorder_density": "rd",
    "metrics.rcv_window_series": "rcv",
    "metrics.consistency_counterexample": "consistency",
    "oracle.verify_theorem": "theorem",
    "oracle.verify_identities": "identities",
    "oracle.enumerate_classes": "classes",
}


def tally(secs, n, tree, cmd):
    """Add one command's call tree to the round's times ``secs`` and counts ``n``."""
    trace_cmd = cmd.ids > 0
    main = tree.children.get("cli.main")
    if main is not None:
        secs["emit_" + cmd.fmt] += main.self_time
    for path, node in tree.walk():
        name = path[-1]
        c = node.counters
        if name in SELF_TIMES:
            secs[SELF_TIMES[name]] += node.self_time
        if name in VALIDATORS:
            secs["validate"] += node.self_time
        if name == "cli.parse_trace":
            n["parse_ids"] += c["ids"]
        if name in KERNEL:
            secs["kernel"] += node.total
            n["kernel_ids"] += c["ids"]
        if name == "buffering.EpisodeSegmentation.state_at":
            n["state_at_calls"] += node.count
        if name == "buffering.segment_episodes":
            n["episode_count"] += c["episodes"]
        if name == "disorder.sus":
            n["sus_calls"] += node.count
        if name == "reconstruct.reconstruct_trace":
            n["recon_calls"] += node.count
            n["recon_ok"] += c["ok"]
        ancestors = path[:-1]
        if ancestors[-1:] == ("reconstruct.reconstruct_trace",) and name in RECON_CHECKS:
            secs["recon_check"] += node.total
        if trace_cmd:
            if name == "cli.resolve_trace":
                n["input_ids"] += c["ids"]
            if name == "buffering.check_ids" or name in RECEIVER_PASSES:
                n["validations"] += c["ids"]
            if name in KERNEL:
                n["kernel_passes"] += c["ids"]
            if name == "disorder.sus_partition":
                n["sus_lists"] += c["lists"]
            if name == "reconstruct.reconstruct_trace":
                n["recon_positions"] += c["positions"]
                n["recon_phase2"] += c["phase2"]
        if name in ENGINES:
            secs["engine"] += node.total
            n["perms"] += c["perms"]
        if any(p in ENGINES for p in ancestors):
            if name in ENGINE_KERNEL and not any(p in ENGINE_KERNEL for p in ancestors):
                secs["engine_kernel"] += node.total
            if name == "disorder.sus":
                n["oracle_sus_calls"] += node.count
            if name in KERNEL:
                n["oracle_kernel_calls"] += node.count
        if name == "disorder.sus" and ancestors[-1:] == ("oracle.verify_theorem",):
            n["sus3_members"] += c["le3"]


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(rounds, n, overhead):
    """Per-layer metrics from each round's times and the first round's counts."""

    def t(key):
        return min(r[key] for r in rounds)

    return {
        "cli.resolve_s": t("resolve"),
        "cli.parse_s": t("parse"),
        "cli.parse_ids_per_s": _ratio(n["parse_ids"], t("parse")),
        "cli.emit_text_s": t("emit_text"),
        "cli.emit_csv_s": t("emit_csv"),
        "cli.emit_json_s": t("emit_json"),
        "cli.stdout_bytes": n["stdout_bytes"],
        "buffering.validate_s": t("validate"),
        "buffering.validations_per_id": _ratio(n["validations"], n["input_ids"]),
        "buffering.kernel_s": t("kernel"),
        "buffering.kernel_ids_per_s": _ratio(n["kernel_ids"], t("kernel")),
        "buffering.kernel_passes_per_id": _ratio(n["kernel_passes"], n["input_ids"]),
        "buffering.episodes_s": t("episodes"),
        "buffering.state_at_s": t("state_at"),
        "buffering.state_at_calls": n["state_at_calls"],
        "buffering.episode_count": n["episode_count"],
        "disorder.sus_partition_s": t("sus_partition"),
        "disorder.sus_lists": n["sus_lists"],
        "disorder.lds_bruteforce_s": t("lds"),
        "disorder.sus_calls": n["sus_calls"],
        "reconstruct.trace_s": t("recon"),
        "reconstruct.check_s": t("recon_check"),
        "reconstruct.phase2_share": _ratio(n["recon_phase2"], n["recon_positions"]),
        "reconstruct.success_ratio": _ratio(n["recon_ok"], n["recon_calls"]),
        "metrics.rd_s": t("rd"),
        "metrics.rcvwindow_s": t("rcv"),
        "metrics.consistency_s": t("consistency"),
        "oracle.theorem_s": t("theorem"),
        "oracle.identities_s": t("identities"),
        "oracle.classes_s": t("classes"),
        "oracle.kernel_share": _ratio(t("engine_kernel"), t("engine")),
        "oracle.perms_per_s": _ratio(n["perms"], t("engine")),
        "oracle.sus_calls": n["oracle_sus_calls"],
        "oracle.kernel_calls": n["oracle_kernel_calls"],
        "oracle.sus3_members": n["sus3_members"],
        "trace.overhead": overhead,
    }


class InProcess:
    """Runs workload commands through the package imported from ``src``."""

    def __init__(self, src) -> None:
        sys.path.insert(0, str(src))
        import reorderlab
        import reorderlab.cli

        self.package = reorderlab
        self.cli = reorderlab.cli

    def run(self, cmd):
        """Execute one command; return (wall seconds, exit code, stdout, stderr)."""
        if cmd.key == "classes":
            start = time.perf_counter()
            r = self.package.enumerate_classes(int(cmd.argv[0]))
            wall = time.perf_counter() - start
            got = (r.class_count, r.max_class_size, r.multi_member_count, r.sus3_collision_count)
            return wall, 0, " ".join(map(str, got)) + "\n", ""
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin = io.StringIO(cmd.stdin.read_text() if cmd.stdin else "")
        sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
        try:
            start = time.perf_counter()
            try:
                code = self.cli.main(cmd.argv)
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
            wall = time.perf_counter() - start
            out, err = sys.stdout.getvalue(), sys.stderr.getvalue()
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
        return wall, code, out, err


def traced_run(workload, src, seconds, log):
    """Alternate untraced and traced rounds for ``seconds``.

    Returns (per-layer metrics, operations attempted, operations failed).
    """
    inproc = InProcess(src)
    recorder = spans.Recorder()
    rounds, first_counts = [], None
    plain_wall = traced_wall = 0.0
    attempted = failed = 0
    missing = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        secs, counts = Counter(), Counter()
        for cmd in workload.commands:
            order = (False, True) if len(rounds) % 2 == 0 else (True, False)
            for traced in order:
                undo = []
                if traced:
                    undo, missing = spans.install(recorder, "reorderlab", TARGETS)
                try:
                    wall, code, out, err = inproc.run(cmd)
                except Exception as exc:  # a crash is a failed operation, not a benchmark error
                    wall, code, out, err = 0.0, None, "", f"{type(exc).__name__}: {exc}"
                finally:
                    spans.uninstall(undo)
                tree = recorder.reset()
                attempted += 1
                why = cmd.judge(code, out, err)
                if traced:
                    traced_wall += wall
                    cmd_counts = Counter(stdout_bytes=len(out.encode()))
                    tally(secs, cmd_counts, tree, cmd)
                    counts.update(cmd_counts)
                    if not rounds and cmd_counts["input_ids"]:
                        per_id = cmd_counts["validations"] / cmd_counts["input_ids"]
                        log(f"validations_per_id {cmd.key} {per_id:.4g}")
                    if why is None and cmd.key.startswith("verify"):
                        n = int(cmd.argv[2])
                        members = cmd_counts["sus3_members"]
                        if members != ref.a005802(n):
                            why = f"{members} SUS<=3 members at n={n}, A005802 gives {ref.a005802(n)}"
                else:
                    plain_wall += wall
                if why:
                    failed += 1
                    log(f"FAIL in-process {cmd.key}: {why}")
        rounds.append(secs)
        first_counts = first_counts or counts
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    log(f"traced rounds: {len(rounds)}")
    if missing:
        log("not wrapped, absent from the package: " + " ".join(missing))
    return layer_metrics(rounds, first_counts, _ratio(traced_wall, plain_wall)), attempted, failed
