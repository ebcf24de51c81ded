"""Disorder measures: greedy ascending-list partition and its brute-force twin.

SUS (shuffled up-sequences) is the minimum number of ascending subsequences a
sequence can be split into; it coincides with the length of the longest
strictly decreasing subsequence.  Both directions are implemented so each can
check the other.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, NamedTuple

from .buffering import check_ids


class SusPartition(NamedTuple):
    """Greedy partition of a sequence into strictly ascending lists.

    The lists' last elements stay in decreasing order across the partition,
    so the list count equals the longest-decreasing-subsequence length.
    """

    lists: tuple[tuple[int, ...], ...]

    @property
    def sus(self) -> int:
        """Number of lists, i.e. the SUS (equivalently LDS) value."""
        return len(self.lists)


def sus_partition(ids: Iterable[int]) -> SusPartition:
    """Scatter elements left to right onto ascending lists, greedily.

    Each element extends the first list whose last element is smaller; if no
    list qualifies it opens a new one.  The last elements decrease from list
    to list, so that first list is found by binary search on their negations
    (patience sorting).
    """
    ids = check_ids(ids)
    lists: list[list[int]] = []
    neg_tails: list[int] = []  # -(last element) of each list, ascending
    for p in ids:
        i = bisect_right(neg_tails, -p)
        if i == len(lists):
            lists.append([p])
            neg_tails.append(-p)
        else:
            lists[i].append(p)
            neg_tails[i] = -p
    return SusPartition(tuple(tuple(lst) for lst in lists))


def sus(ids: Iterable[int]) -> int:
    """SUS of a sequence: minimum number of ascending subsequences covering it.

    Counts the greedy lists from their tails alone, without building them;
    equals ``sus_partition(ids).sus``.
    """
    neg_tails: list[int] = []
    for p in check_ids(ids):
        i = bisect_right(neg_tails, -p)
        if i == len(neg_tails):
            neg_tails.append(-p)
        else:
            neg_tails[i] = -p
    return len(neg_tails)


def lds_bruteforce(ids: Iterable[int]) -> int:
    """Longest strictly decreasing subsequence length, by quadratic DP.

    Shares no machinery with the greedy partition; serves as its oracle.
    """
    ids = check_ids(ids)
    if not ids:
        return 0
    best = [1] * len(ids)
    for i, v in enumerate(ids):
        for j in range(i):
            if ids[j] > v and best[j] + 1 > best[i]:
                best[i] = best[j] + 1
    return max(best)
