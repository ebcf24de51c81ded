"""Result records: repr, field order and ``_asdict()`` of each, pinned on one input."""

import pytest

from reorderlab import (
    DisplacementDistribution,
    EpisodeSegmentation,
    EquivalenceClassReport,
    IdentityViolation,
    RcvWindowSeries,
    ReconstructionTrace,
    SusPartition,
    enumerate_classes,
    rcv_window_series,
    reconstruct_trace,
    reorder_density,
    segment_episodes,
    sus_partition,
)
from reorderlab.buffering import Episode

CASES = [
    (
        lambda: sus_partition((4, 2, 3, 1)),
        SusPartition,
        "SusPartition(lists=((4,), (2, 3), (1,)))",
        {"lists": ((4,), (2, 3), (1,))},
    ),
    (
        lambda: segment_episodes((2, 1, 3, 5, 4)),
        EpisodeSegmentation,
        "EpisodeSegmentation(episodes=(Episode(state='U', start=1, end=2), "
        "Episode(state='O', start=3, end=3), Episode(state='U', start=4, end=5)), "
        "pivots=frozenset({2, 3, 5}), pivot_packets=frozenset({1, 3, 4}))",
        {
            "episodes": (Episode("U", 1, 2), Episode("O", 3, 3), Episode("U", 4, 5)),
            "pivots": frozenset({2, 3, 5}),
            "pivot_packets": frozenset({1, 3, 4}),
        },
    ),
    (
        lambda: reorder_density((4, 2, 3, 1), 3),
        DisplacementDistribution,
        "DisplacementDistribution(counts={3: 1, 0: 2, -3: 1}, total=4, dt=3)",
        {"counts": {3: 1, 0: 2, -3: 1}, "total": 4, "dt": 3},
    ),
    (
        lambda: rcv_window_series((2, 1, 3), 3),
        RcvWindowSeries,
        "RcvWindowSeries(rcv_buffer=3, values=(1, 3, 3))",
        {"rcv_buffer": 3, "values": (1, 3, 3)},
    ),
    (
        lambda: enumerate_classes(2),
        EquivalenceClassReport,
        "EquivalenceClassReport(n=2, classes={(0, 0): ((1, 2),), (2, 0): ((2, 1),)}, "
        "class_count=2, max_class_size=1, multi_member_count=0, sus3_collision_count=0)",
        {
            "n": 2,
            "classes": {(0, 0): ((1, 2),), (2, 0): ((2, 1),)},
            "class_count": 2,
            "max_class_size": 1,
            "multi_member_count": 0,
            "sus3_collision_count": 0,
        },
    ),
    (
        lambda: IdentityViolation((2, 1), "sus-vs-lds"),
        IdentityViolation,
        "IdentityViolation(permutation=(2, 1), check='sus-vs-lds')",
        {"permutation": (2, 1), "check": "sus-vs-lds"},
    ),
    (
        lambda: reconstruct_trace((4, 4, 4, 0)),
        ReconstructionTrace,
        "ReconstructionTrace(buffer_values=(4, 4, 4, 0), packets=(4, 2, 3, 1), "
        "acks=(1, 1, 1, 5), phase1_positions=frozenset({1, 4}), "
        "phase2_positions=frozenset({2, 3}), permutation=(4, 2, 3, 1))",
        {
            "buffer_values": (4, 4, 4, 0),
            "packets": (4, 2, 3, 1),
            "acks": (1, 1, 1, 5),
            "phase1_positions": frozenset({1, 4}),
            "phase2_positions": frozenset({2, 3}),
            "permutation": (4, 2, 3, 1),
        },
    ),
]


@pytest.mark.parametrize("make, cls, text, fields", CASES, ids=[c[1].__name__ for c in CASES])
def test_record_contract(make, cls, text, fields):
    record = make()
    assert type(record) is cls
    assert repr(record) == text
    assert cls._fields == tuple(fields)
    assert record._asdict() == fields
    # a named tuple: positional construction round-trips, and fields cannot be set
    assert cls(*record) == record
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], None)
