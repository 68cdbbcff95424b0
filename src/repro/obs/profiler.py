"""Wall-time phase profiling for the engine hot loop.

The paper's headline cost claim ("negligible overhead", §I) is about
*where time goes*; :class:`PhaseProfiler` answers that per engine phase.
Worlds lap a monotonic clock between their step phases (observe / meet /
decide / move / decay / record), the engine times its due-event drain,
and :class:`~repro.sim.hooks.HookRegistry` times each hook fire under a
``hook:<name>`` label — which is where fault injection lives, so its
cost shows up without bespoke wiring.  The invariant checker, also a
hook subscriber, is timed as its own ``invariants`` phase.

Laps are *consecutive* ``perf_counter`` reads partitioning the step, so
the per-phase totals sum to the recorded ``step`` total exactly (up to
float rounding) — tested, not asserted in prose.

Per-phase state is count/total/min/max plus a bounded sample list for
percentiles (first :data:`SAMPLE_CAP` laps; the summary reports how many
were sampled).  Everything serializes to a JSON-safe dict via
:meth:`PhaseProfiler.as_dict`, merges across runs with
:func:`merge_profiles`, and distils to nearest-rank percentiles with
:func:`summarize_profile`.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Iterable, List, Optional

__all__ = [
    "PhaseProfiler",
    "merge_profiles",
    "summarize_profile",
    "profile_table",
    "SAMPLE_CAP",
]

#: per-phase cap on retained samples (percentile accuracy vs memory).
SAMPLE_CAP = 4096


class _PhaseStats:
    __slots__ = ("count", "total", "minimum", "maximum", "samples")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = 0.0
        self.samples: List[float] = []

    def add(self, duration: float) -> None:
        self.count += 1
        self.total += duration
        if duration < self.minimum:
            self.minimum = duration
        if duration > self.maximum:
            self.maximum = duration
        if len(self.samples) < SAMPLE_CAP:
            self.samples.append(duration)


class PhaseProfiler:
    """Accumulates wall-time durations per named phase."""

    def __init__(self) -> None:
        self._phases: Dict[str, _PhaseStats] = {}

    def add(self, phase: str, duration: float) -> None:
        """Record one duration (seconds) under ``phase``."""
        stats = self._phases.get(phase)
        if stats is None:
            stats = _PhaseStats()
            self._phases[phase] = stats
        stats.add(duration)

    def lap(self, phase: str, since: float) -> float:
        """Record ``now - since`` under ``phase``; return ``now``.

        The return value feeds the next lap, so consecutive laps
        partition an interval with no unaccounted gaps.
        """
        now = perf_counter()
        self.add(phase, now - since)
        return now

    def phases(self) -> List[str]:
        """Recorded phase names, sorted."""
        return sorted(self._phases)

    def total(self, phase: str) -> float:
        """Total seconds recorded under ``phase`` (zero if absent)."""
        stats = self._phases.get(phase)
        return stats.total if stats is not None else 0.0

    def count(self, phase: str) -> int:
        """Number of laps recorded under ``phase``."""
        stats = self._phases.get(phase)
        return stats.count if stats is not None else 0

    def as_dict(self) -> dict:
        """The JSON-safe, mergeable form of every phase."""
        return {
            name: {
                "count": stats.count,
                "total": stats.total,
                "min": stats.minimum,
                "max": stats.maximum,
                "samples": list(stats.samples),
            }
            for name, stats in sorted(self._phases.items())
        }


def merge_profiles(profiles: Iterable[Optional[dict]]) -> dict:
    """Merge :meth:`PhaseProfiler.as_dict` outputs (``None``s skipped).

    Counts and totals sum, min/max extremise, and sample lists
    concatenate (each already capped per run at :data:`SAMPLE_CAP`).
    """
    merged: Dict[str, dict] = {}
    for profile in profiles:
        if not profile:
            continue
        for name, stats in profile.items():
            mine = merged.get(name)
            if mine is None:
                merged[name] = {
                    "count": stats["count"],
                    "total": stats["total"],
                    "min": stats["min"],
                    "max": stats["max"],
                    "samples": list(stats["samples"]),
                }
                continue
            mine["count"] += stats["count"]
            mine["total"] += stats["total"]
            mine["min"] = min(mine["min"], stats["min"])
            mine["max"] = max(mine["max"], stats["max"])
            mine["samples"].extend(stats["samples"])
    return dict(sorted(merged.items()))


def _percentile(ordered: List[float], fraction: float) -> float:
    """Nearest-rank percentile over pre-sorted samples."""
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


def summarize_profile(profile: dict) -> dict:
    """Distil a (merged) profile dict into per-phase percentile rows.

    Each phase maps to count / total / mean / min / p50 / p90 / p99 /
    max / sampled, all in seconds except the two integer counts.
    """
    summary = {}
    for name, stats in profile.items():
        ordered = sorted(stats["samples"])
        count = stats["count"]
        summary[name] = {
            "count": count,
            "total": stats["total"],
            "mean": stats["total"] / count if count else 0.0,
            "min": stats["min"] if count else 0.0,
            "p50": _percentile(ordered, 0.50),
            "p90": _percentile(ordered, 0.90),
            "p99": _percentile(ordered, 0.99),
            "max": stats["max"],
            "sampled": len(ordered),
        }
    return summary


def profile_table(summary: dict) -> str:
    """Render a percentile summary as an aligned text table."""
    columns = ["phase", "count", "total_s", "mean_us", "p50_us", "p90_us", "p99_us", "max_us"]
    rows = []
    for name, stats in summary.items():
        rows.append(
            [
                name,
                str(stats["count"]),
                f"{stats['total']:.3f}",
                f"{stats['mean'] * 1e6:.1f}",
                f"{stats['p50'] * 1e6:.1f}",
                f"{stats['p90'] * 1e6:.1f}",
                f"{stats['p99'] * 1e6:.1f}",
                f"{stats['max'] * 1e6:.1f}",
            ]
        )
    widths = [len(c) for c in columns]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(c.ljust(w) for c, w in zip(columns, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
