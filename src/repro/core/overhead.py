"""Per-agent overhead accounting.

The paper argues repeatedly about overhead: its stigmergic mechanism
"imposes negligible overhead on the system complexity" (§I), while the
related agents of Abdullah et al. carry "about 5 times more overhead"
and those of Choudhury et al. "about 4 times more" (§II-B, §III-B).
:class:`OverheadMeter` makes those claims measurable in this
reproduction: agents tick counters for every decision, candidate
comparison, footprint interaction and meeting payload, and worlds
aggregate them into per-step averages (see the ``abl4`` experiment).

Counting is additive and cheap (integer increments), so metering does
not itself distort the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

__all__ = ["OverheadMeter", "aggregate_overheads"]


@dataclass
class OverheadMeter:
    """Operation counters for one agent."""

    #: movement decisions taken (one per step with a reachable neighbour).
    decisions: int = 0
    #: candidate neighbours examined across all decisions.
    candidates_examined: int = 0
    #: footprint marks written.
    footprints_stamped: int = 0
    #: footprint-board consultations (one per stigmergic decision).
    footprint_lookups: int = 0
    #: meetings participated in.
    meetings: int = 0
    #: knowledge items (edges / visits / tracks / history entries)
    #: received from peers during meetings.
    items_received: int = 0
    #: route entries written into node tables (routing agents).
    routes_installed: int = 0
    #: migration hops attempted over the channel (retries included).
    hops_attempted: int = 0
    #: hop attempts the channel dropped.
    hops_lost: int = 0
    #: retries scheduled after a lost hop.
    hop_retries: int = 0
    #: targets given up on after the retry budget ran out.
    hops_abandoned: int = 0
    #: meeting payloads the channel dropped before absorption.
    payloads_lost: int = 0
    #: route entries dropped as link-quality evidence after abandonment.
    routes_invalidated: int = 0
    #: route writes the table guards refused (adversarial resilience).
    routes_rejected: int = 0

    def absorb(self, other: "OverheadMeter") -> None:
        """Add ``other``'s counters into this meter in place."""
        self.decisions += other.decisions
        self.candidates_examined += other.candidates_examined
        self.footprints_stamped += other.footprints_stamped
        self.footprint_lookups += other.footprint_lookups
        self.meetings += other.meetings
        self.items_received += other.items_received
        self.routes_installed += other.routes_installed
        self.hops_attempted += other.hops_attempted
        self.hops_lost += other.hops_lost
        self.hop_retries += other.hop_retries
        self.hops_abandoned += other.hops_abandoned
        self.payloads_lost += other.payloads_lost
        self.routes_invalidated += other.routes_invalidated
        self.routes_rejected += other.routes_rejected

    def merged_with(self, other: "OverheadMeter") -> "OverheadMeter":
        """The element-wise sum of two meters (neither input mutated)."""
        total = OverheadMeter(**self.as_dict())
        total.absorb(other)
        return total

    def per_decision(self) -> Dict[str, float]:
        """Counters normalised by the number of decisions taken."""
        if self.decisions == 0:
            return {name: 0.0 for name in self.as_dict()}
        return {
            name: value / self.decisions for name, value in self.as_dict().items()
        }

    def as_dict(self) -> Dict[str, int]:
        """All counters as a plain dict."""
        return {
            "decisions": self.decisions,
            "candidates_examined": self.candidates_examined,
            "footprints_stamped": self.footprints_stamped,
            "footprint_lookups": self.footprint_lookups,
            "meetings": self.meetings,
            "items_received": self.items_received,
            "routes_installed": self.routes_installed,
            "hops_attempted": self.hops_attempted,
            "hops_lost": self.hops_lost,
            "hop_retries": self.hop_retries,
            "hops_abandoned": self.hops_abandoned,
            "payloads_lost": self.payloads_lost,
            "routes_invalidated": self.routes_invalidated,
            "routes_rejected": self.routes_rejected,
        }


def aggregate_overheads(meters: Iterable[OverheadMeter]) -> OverheadMeter:
    """Sum a collection of per-agent meters into one team meter.

    Accumulates in place: called per agent in every run summary, so it
    must not allocate a fresh meter per element.
    """
    total = OverheadMeter()
    for meter in meters:
        total.absorb(meter)
    return total
