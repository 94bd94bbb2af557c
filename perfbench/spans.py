"""In-memory span recording around the public entry points of ``repro``.

The recorder patches functions and methods from outside the program: each
wrapped call becomes one span (layer, parent, start, end) appended to flat
arrays, so a traced basket pass of several hundred thousand spans costs
about 24 bytes a span.  The spans are written out once, at the end of the
run, and a layer's self time is computed from them afterwards: a span's
duration minus the durations of the spans it directly contains.
"""

from __future__ import annotations

import functools
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np


def self_times(
    names: Sequence[str],
    layers: Sequence[int],
    parents: Sequence[int],
    starts: Sequence[float],
    ends: Sequence[float],
) -> Dict[str, float]:
    """Self time per layer name, in the clock's unit.

    ``layers[i]`` indexes ``names``; ``parents[i]`` is the index of the
    span that contains span ``i``, or -1 for a root.  Children of one
    span never overlap (calls nest on one stack), so the part of a span
    its children cover is the sum of their durations.
    """
    layer = np.asarray(layers, dtype=np.int64)
    parent = np.asarray(parents, dtype=np.int64)
    duration = np.asarray(ends, dtype=np.float64) - np.asarray(starts, dtype=np.float64)
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
    own = duration - covered
    totals = np.bincount(layer, weights=own, minlength=len(names))
    return {name: float(totals[i]) for i, name in enumerate(names)}


class SpanRecorder:
    """Records nested spans and per-layer call counts in memory."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.counters: Dict[str, int] = {}
        self._patches: List[tuple] = []
        self.clear()

    def clear(self) -> None:
        """Drop every recorded span and counter; patches stay installed."""
        self.layers = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        for key in self.counters:
            self.counters[key] = 0

    def layer_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _open(self, layer: int) -> int:
        index = len(self.layers)
        self.layers.append(layer)
        self.parents.append(self._stack[-1])
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts[index] = perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, layer: str):
        """A span around a block of the benchmark's own code."""
        index = self._open(self.layer_id(layer))
        try:
            yield
        finally:
            self._close(index)

    def wrap(
        self,
        owner,
        attr: str,
        layer: str,
        on_return: Optional[Callable[[tuple, object], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a spanned call of the original.

        ``on_return(args, result)`` runs after the span closes, to
        record counts read off the call.
        """
        raw = vars(owner).get(attr)
        original = getattr(owner, attr)
        layer_id = self.layer_id(layer)
        open_, close = self._open, self._close

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            index = open_(layer_id)
            try:
                result = original(*args, **kwargs)
            finally:
                close(index)
            if on_return is not None:
                on_return(args, result)
            return result

        setattr(owner, attr, spanned)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, last wrapped first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if raw is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    def calls(self) -> Dict[str, int]:
        """Number of spans per layer name."""
        counts = np.bincount(np.asarray(self.layers, dtype=np.int64), minlength=len(self.names))
        return {name: int(counts[i]) for i, name in enumerate(self.names)}

    def self_times(self) -> Dict[str, float]:
        """Self seconds per layer name over the recorded spans."""
        return self_times(self.names, self.layers, self.parents, self.starts, self.ends)

    def save(self, path) -> None:
        """Write the recorded spans as numpy columns to ``path``."""
        with open(path, "wb") as handle:
            np.savez(
                handle,
                names=np.array(self.names),
                layer=np.asarray(self.layers),
                parent=np.asarray(self.parents),
                start=np.asarray(self.starts),
                end=np.asarray(self.ends),
            )
