"""Receiver-side analysis of packet reordering.

The library models a receiver that buffers out-of-order packets until the
next in-sequence ID arrives, and builds everything else on that single
process: buffer-size series, cumulative ACKs, equivalence of traces,
ordered/unordered episode segmentation, ascending-list disorder measures,
reconstruction of low-disorder permutations from buffer series alone, and
consistency probes for reordering metrics.

The ``metrics`` and ``oracle`` exports load on first use (PEP 562) and are
read from their modules on each access, so a command-line run that needs
neither does not import them; ``__all__`` and ``dir()`` list them as before.
The other exports stay eager.  ``reconstruct`` must: importing the
``reorderlab.reconstruct`` submodule binds the package's ``reconstruct`` to
the module, so a late import would replace the function.
"""

from .buffering import (
    ORDERED,
    UNORDERED,
    Episode,
    EpisodeSegmentation,
    ReceiverState,
    ack_from_buffer,
    ack_sequence,
    behaviorally_equivalent,
    buffer_sizes,
    check_ids,
    check_permutation,
    fb_equivalent,
    segment_episodes,
)
from .disorder import SusPartition, lds_bruteforce, sus, sus_partition
from .errors import (
    CapacityExceededError,
    InvalidParameterError,
    InvalidSequenceError,
    ReorderError,
)
from .reconstruct import MAX_SUS, ReconstructionTrace, reconstruct, reconstruct_trace

__version__ = "0.1.0"

# lazy export: defining module, or itself for the two submodules
_LAZY = {
    **dict.fromkeys(
        [
            "DisplacementDistribution",
            "RcvWindowSeries",
            "consistency_counterexample",
            "mean_buffer_size",
            "rcv_window_series",
            "reorder_density",
            "metrics",
        ],
        "metrics",
    ),
    **dict.fromkeys(
        [
            "EquivalenceClassReport",
            "IdentityViolation",
            "enumerate_classes",
            "verify_identities",
            "verify_theorem",
            "oracle",
        ],
        "oracle",
    ),
}


def __getattr__(name: str) -> object:
    """Import a lazy export's module on first use and read the export from it.

    The export is read from its module on every access and not kept here, so
    a patch of the module's name, and its undoing, show through the package.
    Importing the module binds the submodule's own name here.
    """
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    return value if name == module else getattr(value, name)


def __dir__() -> list[str]:
    return sorted(set(globals()).union(_LAZY).difference(["_LAZY", "__dir__", "__getattr__"]))

__all__ = [
    "CapacityExceededError",
    "DisplacementDistribution",
    "Episode",
    "EpisodeSegmentation",
    "EquivalenceClassReport",
    "IdentityViolation",
    "InvalidParameterError",
    "InvalidSequenceError",
    "MAX_SUS",
    "ORDERED",
    "RcvWindowSeries",
    "ReceiverState",
    "ReconstructionTrace",
    "ReorderError",
    "SusPartition",
    "UNORDERED",
    "ack_from_buffer",
    "ack_sequence",
    "behaviorally_equivalent",
    "buffer_sizes",
    "check_ids",
    "check_permutation",
    "consistency_counterexample",
    "enumerate_classes",
    "fb_equivalent",
    "lds_bruteforce",
    "mean_buffer_size",
    "rcv_window_series",
    "reconstruct",
    "reconstruct_trace",
    "reorder_density",
    "segment_episodes",
    "sus",
    "sus_partition",
    "verify_identities",
    "verify_theorem",
    "__version__",
]
