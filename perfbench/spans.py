"""Span recorder that wraps a package's functions from outside it.

Spans are not stored one by one: the exhaustive engines make ~10^6 calls.
Each call lands on a node of a call tree keyed by the chain of wrapped
names above it, which keeps count, total time, the time covered by child
spans, and any counters a ``measure`` hook derives from the arguments and
result.  A node's self time is its total minus its child time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter


class Node:
    __slots__ = ("children", "count", "total", "child_time", "counters")

    def __init__(self) -> None:
        self.children: dict[str, Node] = {}
        self.count = 0
        self.total = 0.0
        self.child_time = 0.0
        self.counters: Counter = Counter()

    @property
    def self_time(self) -> float:
        return self.total - self.child_time

    def walk(self, path=()):
        """Yield ``(path, node)`` for every node below this one."""
        for name, child in self.children.items():
            sub = path + (name,)
            yield sub, child
            yield from child.walk(sub)


class Recorder:
    """Call tree of the wrapped functions, for one command at a time."""

    def __init__(self) -> None:
        self.root = Node()
        self._stack = [self.root]

    def reset(self) -> Node:
        """Start a fresh tree and return the finished one."""
        done, self.root = self.root, Node()
        self._stack[:] = [self.root]
        return done

    def wrap(self, name, fn, measure=None):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1]
            node = parent.children.get(name)
            if node is None:
                node = parent.children[name] = Node()
            stack.append(node)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                node.count += 1
                node.total += elapsed
                parent.child_time += elapsed
            if measure is not None:
                node.counters.update(measure(args, result))
            return result

        return span


def install(recorder, package, targets):
    """Wrap each target everywhere the package's modules bind it.

    ``targets`` maps ``"module.function"`` or ``"module.Class.method"`` to a
    ``measure`` hook or None.  ``from .buffering import buffer_sizes`` binds
    the same object in several modules, so each module attribute holding the
    original is replaced.  A target the package no longer has is skipped, so
    its spans read zero instead of the run failing.  Returns the undo list
    for ``uninstall`` and the skipped targets.
    """
    modules = [m for k, m in sys.modules.items() if k == package or k.startswith(package + ".")]
    undo, missing = [], []
    for target, measure in targets.items():
        module_name, _, attr_path = target.partition(".")
        owner = sys.modules.get(f"{package}.{module_name}")
        *owner_path, attr = attr_path.split(".")
        for part in owner_path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            missing.append(target)
            continue
        wrapper = recorder.wrap(target, original, measure)
        holders = [owner] if owner_path else [m for m in modules if getattr(m, attr, None) is original]
        for holder in holders:
            undo.append((holder, attr, original))
            setattr(holder, attr, wrapper)
    return undo, missing


def uninstall(undo) -> None:
    for holder, attr, original in reversed(undo):
        setattr(holder, attr, original)
