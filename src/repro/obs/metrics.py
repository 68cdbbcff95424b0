"""The metrics registry: counters, gauges, histograms, and step rings.

AntNet treats per-node statistics collection as a first-class part of the
routing algorithm; this module gives the reproduction the same footing.
A :class:`MetricsRegistry` is a small, dependency-free collection of four
instrument families:

* **counters** — monotonically increasing integers (hops, meetings,
  losses).  Merge = sum.
* **gauges** — point-in-time levels (agents alive, edge count).  Merge =
  max: a gauge is a level, and the merged view reports the highest level
  any contributor saw.
* **histograms** — fixed-bucket frequency counts over ``observe()``-d
  values.  Buckets are declared up front (upper bounds, plus an implicit
  overflow bucket), so merging is an element-wise sum with no rebinning.
* **rings** — per-step time-series ring buffers of ``(time, value)``
  samples, capacity-bounded at record time.  Merge = sorted multiset
  union of the samples.

Everything round-trips through :meth:`MetricsRegistry.snapshot` — a
plain, JSON-safe dict — and snapshots merge with
:func:`merge_snapshots`.  The merge is **associative and commutative**,
which is what lets per-run registries collected on process-pool workers
collapse into one experiment-level view regardless of worker count or
completion order (the runner feeds them in a canonical order anyway).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

__all__ = ["MetricsRegistry", "merge_snapshots", "METRICS_SCHEMA"]

#: bumped when the snapshot layout changes incompatibly.
METRICS_SCHEMA = 1

#: ring capacity unless a declaration names another; every ring the
#: collector records uses it.
DEFAULT_RING_CAPACITY = 512


class _Histogram:
    """Fixed-bucket histogram: counts per declared upper bound + overflow."""

    __slots__ = ("bounds", "counts", "count", "total")

    def __init__(self, bounds: Sequence[float]) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ConfigurationError(
                f"histogram bounds must be a non-empty ascending sequence, got {bounds!r}"
            )
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1


class _Ring:
    """A bounded ring of ``(time, value)`` samples (oldest evicted first)."""

    __slots__ = ("capacity", "times", "values", "dropped")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.times: List[int] = []
        self.values: List[float] = []
        self.dropped = 0

    def record(self, time: int, value: float) -> None:
        if len(self.times) >= self.capacity:
            self.times.pop(0)
            self.values.pop(0)
            self.dropped += 1
        self.times.append(time)
        self.values.append(value)


class MetricsRegistry:
    """One run's worth of counters, gauges, histograms, and rings.

    All mutators are plain dict operations — cheap enough that metering
    never distorts what it measures.  The registry is *not* attached to
    anything by itself; :class:`~repro.obs.collector.ObsCollector` feeds
    it from world hooks.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, _Histogram] = {}
        self._rings: Dict[str, _Ring] = {}

    # -- counters ------------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (created at zero)."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def counter(self, name: str) -> int:
        """Current value of a counter (zero if never incremented)."""
        return self._counters.get(name, 0)

    # -- gauges --------------------------------------------------------

    def gauge_set(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (overwrites)."""
        self._gauges[name] = float(value)

    def gauge(self, name: str) -> Optional[float]:
        """Current gauge value, or ``None`` if never set."""
        return self._gauges.get(name)

    # -- histograms ----------------------------------------------------

    def histogram(self, name: str, bounds: Sequence[float]) -> None:
        """Declare a fixed-bucket histogram (idempotent for equal bounds)."""
        existing = self._histograms.get(name)
        if existing is not None:
            if existing.bounds != tuple(float(b) for b in bounds):
                raise ConfigurationError(
                    f"histogram {name!r} re-declared with different bounds"
                )
            return
        self._histograms[name] = _Histogram(bounds)

    def observe(self, name: str, value: float) -> None:
        """Record one observation into a declared histogram."""
        try:
            self._histograms[name].observe(value)
        except KeyError:
            raise ConfigurationError(
                f"histogram {name!r} must be declared before observe()"
            ) from None

    # -- rings ---------------------------------------------------------

    def ring(self, name: str, capacity: int = DEFAULT_RING_CAPACITY) -> None:
        """Declare a per-step ring buffer (idempotent; capacity kept)."""
        if name not in self._rings:
            self._rings[name] = _Ring(capacity)

    def ring_record(self, name: str, time: int, value: float) -> None:
        """Append one ``(time, value)`` sample (implicit default ring)."""
        ring = self._rings.get(name)
        if ring is None:
            ring = _Ring(DEFAULT_RING_CAPACITY)
            self._rings[name] = ring
        ring.record(time, float(value))

    # -- snapshots -----------------------------------------------------

    def snapshot(self) -> dict:
        """The JSON-safe, mergeable form of everything recorded."""
        return {
            "schema": METRICS_SCHEMA,
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {
                name: {
                    "bounds": list(histogram.bounds),
                    "counts": list(histogram.counts),
                    "count": histogram.count,
                    "total": histogram.total,
                }
                for name, histogram in self._histograms.items()
            },
            "rings": {
                name: {
                    "capacity": ring.capacity,
                    "times": list(ring.times),
                    "values": list(ring.values),
                    "dropped": ring.dropped,
                }
                for name, ring in self._rings.items()
            },
        }


def _merge_two(left: dict, right: dict) -> dict:
    for payload in (left, right):
        if payload.get("schema") != METRICS_SCHEMA:
            raise ConfigurationError(
                f"cannot merge metrics snapshot with schema "
                f"{payload.get('schema')!r} (expected {METRICS_SCHEMA})"
            )
    counters = dict(left["counters"])
    for name, value in right["counters"].items():
        counters[name] = counters.get(name, 0) + value
    gauges = dict(left["gauges"])
    for name, value in right["gauges"].items():
        gauges[name] = max(gauges[name], value) if name in gauges else value
    histograms = {name: dict(h, bounds=list(h["bounds"]), counts=list(h["counts"]))
                  for name, h in left["histograms"].items()}
    for name, other in right["histograms"].items():
        mine = histograms.get(name)
        if mine is None:
            histograms[name] = dict(
                other, bounds=list(other["bounds"]), counts=list(other["counts"])
            )
            continue
        if mine["bounds"] != list(other["bounds"]):
            raise ConfigurationError(
                f"histogram {name!r} has mismatched bounds across snapshots"
            )
        mine["counts"] = [a + b for a, b in zip(mine["counts"], other["counts"])]
        mine["count"] += other["count"]
        mine["total"] += other["total"]
    rings = {name: dict(r, times=list(r["times"]), values=list(r["values"]))
             for name, r in left["rings"].items()}
    for name, other in right["rings"].items():
        mine = rings.get(name)
        if mine is None:
            rings[name] = dict(
                other, times=list(other["times"]), values=list(other["values"])
            )
            continue
        samples = sorted(
            list(zip(mine["times"], mine["values"]))
            + list(zip(other["times"], other["values"]))
        )
        mine["times"] = [t for t, __ in samples]
        mine["values"] = [v for __, v in samples]
        mine["capacity"] = max(mine["capacity"], other["capacity"])
        mine["dropped"] += other["dropped"]
    return {
        "schema": METRICS_SCHEMA,
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
        "rings": rings,
    }


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Merge registry snapshots (associative and commutative).

    Counters sum, gauges take the max, histogram buckets sum
    (bounds must match), and ring samples union into one sorted series.
    An empty iterable merges to an empty snapshot.
    """
    merged: Optional[dict] = None
    for snapshot in snapshots:
        merged = snapshot if merged is None else _merge_two(merged, snapshot)
    if merged is None:
        return MetricsRegistry().snapshot()
    # Normalise: even a single snapshot comes back as an independent copy.
    return _merge_two(MetricsRegistry().snapshot(), merged)
