"""Span tracing for the traced benchmark run.

The traced run wraps public callables of each layer (class methods,
properties and module-level bindings) from this file only; the program
is not changed.  Every wrapped call records one span — name, parent span,
start and end — into an in-memory list, and optional probes record counts
at the same call boundary.  Spans are written out when the run ends.

A layer's *self time* is its spans' duration minus the part covered by
their child spans, so the O(n²) link refresh that runs lazily inside the
agent engine's first adjacency read shows as ``net.topology`` time, not
``core.batch`` time.  Wrapping µs-scale calls (``observe``,
``choose_next``) adds a cost of the same order, so traced figures are
shares of the traced run, not speeds.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: Probe: ``enter(args) -> state`` and ``leave(args, result, state)``;
#: ``leave`` runs even when the call raises (``result`` is then ``None``).
Probe = Tuple[Callable[[tuple], Any], Callable[[tuple, Any, Any], None]]


class Tracer:
    """In-memory span recorder with per-name counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        #: (name id, parent span index or -1, start, end), by open order.
        self.spans: List[Optional[Tuple[int, int, float, float]]] = []
        self._stack: List[int] = [-1]
        self.counts: Dict[str, float] = defaultdict(float)
        #: how many ``sim.engine.step`` spans are open (counts that
        #: belong to stepping, not construction, read this).
        self.stepping = 0
        self._undo: List[Callable[[], None]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn: Callable, name: str, probe: Optional[Probe] = None) -> Callable:
        """``fn`` recording a ``name`` span per call (and its probe)."""
        name_id = self._name_id(name)
        spans = self.spans
        stack = self._stack
        enter, leave = probe if probe is not None else (None, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = enter(args) if enter is not None else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name_id, parent, start, end)
                if leave is not None:
                    leave(args, result, state)

        return traced

    def patch(self, owner: Any, attr: str, name: str, probe: Optional[Probe] = None) -> None:
        """Replace ``owner.attr`` (function or property) by a traced one."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, property):
            replacement: Any = property(self.wrap(original.fget, name, probe))
        else:
            replacement = self.wrap(original, name, probe)
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, original))

    def unpatch(self) -> None:
        """Restore every patched attribute."""
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        """Closed spans as parallel arrays (``name``, ``parent``, ``start``, ``end``)."""
        closed = [span for span in self.spans if span is not None]
        if len(closed) != len(self.spans):
            raise RuntimeError("trace ended with open spans")
        table = np.array(closed, dtype=np.float64).reshape(-1, 4)
        return {
            "name": table[:, 0].astype(np.int64),
            "parent": table[:, 1].astype(np.int64),
            "start": table[:, 2],
            "end": table[:, 3],
        }

    def save(self, path: str) -> None:
        """Write every span plus the name table to a compressed ``.npz``."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(arrays: Dict[str, np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Per-span (duration, self time)."""
    duration = arrays["end"] - arrays["start"]
    parent = arrays["parent"]
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
    return duration, duration - covered
