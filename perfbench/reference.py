"""Independent reference results for every command the benchmark runs.

Nothing here imports ``reorderlab``: each result is recomputed from the
definitions (a receiver's upload point and highest ID, greedy ascending
lists, displacements), and each expected output is rendered byte for byte
the way the CLI documents it.  ``perfbench/tests`` cross-checks these
functions against the brute-force oracles in ``tests/_oracles.py``.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections import Counter
from itertools import permutations
from math import comb


def buffer_and_ack(ids):
    """Buffer series and cumulative-ACK series of a trace, in one O(n) pass."""
    received = set()
    highest = 0
    upload = 0
    buf, ack = [], []
    for v in ids:
        received.add(v)
        if v > highest:
            highest = v
        while upload + 1 in received:
            upload += 1
        buf.append(highest - upload)
        ack.append(upload + 1)
    return buf, ack


def episodes(ids, buf, ack):
    """Ordered/unordered episodes, pivot positions and per-position states.

    A position is ordered when the buffer is empty before and after the
    arrival; a pivot is an arrival that advances the upload point.
    """
    states, pivots = [], []
    prev_m, prev_ack = 0, 1
    for pos, (m, a) in enumerate(zip(buf, ack), start=1):
        states.append("O" if m == 0 and prev_m == 0 else "U")
        if a > prev_ack:
            pivots.append(pos)
        prev_m, prev_ack = m, a
    runs = []
    for pos, s in enumerate(states, start=1):
        if runs and runs[-1][0] == s:
            runs[-1][2] = pos
        else:
            runs.append([s, pos, pos])
    return [tuple(r) for r in runs], pivots, states


def sus_lists(ids):
    """Greedy first-fit ascending lists, found by binary search on the tails.

    The tails stay strictly decreasing from the first list to the last, so
    the first list whose tail is below ``p`` is a bisection on the negated
    tails (patience sorting).
    """
    neg_tails, lists = [], []
    for p in ids:
        i = bisect_right(neg_tails, -p)
        if i == len(lists):
            lists.append([p])
            neg_tails.append(-p)
        else:
            lists[i].append(p)
            neg_tails[i] = -p
    return lists


def rd_counts(perm):
    """Displacement counts of a permutation with no truncation (dt = inf)."""
    return Counter(v - i for i, v in enumerate(perm, start=1))


def a005802(n):
    """Number of 1234-avoiding permutations of length n (Gessel's formula).

    Reversal maps them onto the permutations with SUS at most 3.
    """
    total = sum(
        comb(2 * k, k) * comb(n + 1, k + 1) * comb(n + 2, k + 1) for k in range(n + 1)
    )
    return total // ((n + 1) ** 2 * (n + 2))


def class_report(n):
    """Buffer-equivalence classes of S_n: count, largest, multi-member, SUS<=3 collisions."""
    classes = {}
    for perm in permutations(range(1, n + 1)):
        classes.setdefault(tuple(buffer_and_ack(perm)[0]), []).append(perm)
    sizes = [len(members) for members in classes.values()]
    collisions = sum(
        1
        for members in classes.values()
        if sum(1 for p in members if len(sus_lists(p)) <= 3) >= 2
    )
    return len(classes), max(sizes), sum(1 for s in sizes if s >= 2), collisions


# Renderers: the exact stdout of each CLI command.


def render_lines(values):
    return "".join(f"{v}\n" for v in values)


def render_csv_series(values):
    return "position,value\n" + "".join(
        f"{i},{v}\n" for i, v in enumerate(values, start=1)
    )


def render_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def render_episodes_text(runs, pivots, ids):
    out = [f"episode {s} {a} {b}\n" for s, a, b in runs]
    out.append(" ".join(["pivots", *map(str, pivots)]) + "\n")
    packets = sorted(ids[p - 1] for p in pivots)
    out.append(" ".join(["pivot-packets", *map(str, packets)]) + "\n")
    return "".join(out)


def render_episodes_csv(ids, states, pivots):
    pivot_set = set(pivots)
    rows = (
        f"{pos},{v},{s},{int(pos in pivot_set)}\n"
        for pos, (v, s) in enumerate(zip(ids, states), start=1)
    )
    return "position,id,state,pivot\n" + "".join(rows)


def render_sus(lists):
    out = [f"sus {len(lists)}\n"]
    out.extend(" ".join(["list", *map(str, lst)]) + "\n" for lst in lists)
    return "".join(out)


def render_rd(counts, total):
    return "".join(f"{d} {c}/{total}\n" for d, c in sorted(counts.items()))


def render_equiv(fb, beh):
    word = {True: "true", False: "false"}
    return f"fb-equivalent {word[fb]}\nbehaviorally-equivalent {word[beh]}\n"


MAX_IDENTITY_N = 7  # the CLI skips the per-permutation identity sweep above this n


def render_verify(n):
    identities = "identities pass" if n <= MAX_IDENTITY_N else "identities skipped"
    return f"theorem pass\n{identities}\n"


def check_reconstruction(text, buf):
    """Why a ``reconstruct`` output is wrong for series ``buf``, or None.

    The output must be one line holding a permutation of 1..n whose buffer
    series is ``buf`` and whose greedy list count is at most 3.
    """
    lines = text.splitlines()
    if len(lines) != 1:
        return f"expected one line, got {len(lines)}"
    try:
        perm = [int(tok) for tok in lines[0].split()]
    except ValueError:
        return f"not a permutation: {lines[0][:40]!r}"
    if sorted(perm) != list(range(1, len(buf) + 1)):
        return "not a permutation of 1..n"
    if buffer_and_ack(perm)[0] != list(buf):
        return "buffer series differs from the input"
    if len(sus_lists(perm)) > 3:
        return "SUS above 3"
    return None
