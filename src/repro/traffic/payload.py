"""Payloads, payload copies, and the conservation ledger.

The paper's routing tables exist so "an average packet will use a
multi-hop path to reach one of those gateways" — user *data*, not just
agents, must cross the network.  This module supplies the data plane's
identity layer:

* :class:`Payload` — the immutable identity of one unit of user data:
  who sent it, where it must go (a specific node, or any live gateway),
  when it was created, how long it may live, and its priority class;
* :class:`PayloadCopy` — one physical manifestation of a payload inside
  a node's buffer.  Single-copy custody routing keeps exactly one copy
  per payload; replication routers (epidemic, spray-and-wait) fan
  copies out, each carrying its own hop count and spray-ticket budget;
* :class:`TrafficLedger` — the authoritative accounting of every
  payload ever generated.  Each payload is in exactly one state —
  ``alive``, ``delivered``, ``expired``, or ``dropped`` — and the
  ledger maintains the per-payload live-copy count, so the cross-layer
  conservation invariant

      generated == delivered + expired + dropped + alive

  is checkable after every step with no tolerance for slop.  Fault
  churn (crash / respawn / loss bursts) may *delay* payloads, never
  leak them: a payload stranded on a crashed node stays ``alive`` and
  buffered until it is delivered, expires, or is explicitly dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.types import NodeId, Time

__all__ = [
    "ALIVE",
    "DELIVERED",
    "EXPIRED",
    "DROPPED",
    "Payload",
    "PayloadCopy",
    "TrafficLedger",
    "LATENCY_BUCKETS",
]

#: Payload lifecycle states (mutually exclusive; ``ALIVE`` is the only
#: non-terminal one).
ALIVE = "alive"
DELIVERED = "delivered"
EXPIRED = "expired"
DROPPED = "dropped"

#: End-to-end latency histogram buckets, in steps (power-of-two rims;
#: anything slower than the last bound lands in the overflow bucket).
LATENCY_BUCKETS: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)


@dataclass(frozen=True)
class Payload:
    """The immutable identity of one unit of user data.

    ``destination=None`` means "any live gateway" — the routing world's
    anycast semantics; a concrete node id is strict unicast (the mapping
    world, which has no gateways, uses this form).
    """

    pid: int
    source: NodeId
    created_at: Time
    ttl: int
    destination: Optional[NodeId] = None
    priority: int = 0

    def expired_at(self, now: Time) -> bool:
        """Whether the payload's lifetime is over at step ``now``."""
        return now - self.created_at >= self.ttl


@dataclass
class PayloadCopy:
    """One buffered manifestation of a payload at some node.

    ``hops`` counts the custody transfers this copy has survived;
    ``tickets`` is the spray-and-wait copy budget this copy may still
    delegate (1 = wait phase: direct delivery only).  Retransmission
    state (``pending_target`` / ``failures`` / ``retry_at``) mirrors the
    agent-migration hop state machine: a failed transfer backs off
    exponentially toward the *same* next hop, and abandons it after the
    configured retry budget, falling back to buffering.
    """

    payload: Payload
    hops: int = 0
    tickets: int = 1
    pending_target: Optional[NodeId] = None
    failures: int = 0
    retry_at: Time = 0

    def reset_pending(self) -> None:
        """Forget the in-flight transfer (success, abandonment, reroute)."""
        self.pending_target = None
        self.failures = 0
        self.retry_at = 0

    @property
    def in_flight(self) -> bool:
        """Whether this copy is mid custody-transfer (awaiting a retry)."""
        return self.pending_target is not None


@dataclass
class _LedgerEntry:
    """Per-payload accounting: state, live copies, and outcome stamps."""

    payload: Payload
    status: str = ALIVE
    copies: int = 0
    delivered_at: Optional[Time] = None
    delivered_hops: int = 0


class TrafficLedger:
    """Authoritative per-payload state with exact conservation.

    Every state transition is funneled through the ledger so the
    invariant checker can recompute ``generated == delivered + expired +
    dropped + alive`` from first principles every step.  Transitions out
    of a terminal state raise — a router bug that double-delivers or
    drops a delivered payload fails the step it happens.
    """

    def __init__(self) -> None:
        self._entries: Dict[int, _LedgerEntry] = {}
        self.generated = 0
        self.delivered = 0
        self.expired = 0
        self.dropped = 0
        #: end-to-end latency histogram over delivered payloads:
        #: ``len(LATENCY_BUCKETS)`` rims plus one overflow bucket.
        self.latency_counts: List[int] = [0] * (len(LATENCY_BUCKETS) + 1)
        self.latency_total = 0
        self.hops_total = 0

    # -- lifecycle ------------------------------------------------------

    def register(self, payload: Payload) -> None:
        """Record a freshly generated payload (one live copy)."""
        if payload.pid in self._entries:
            raise SimulationError(f"payload {payload.pid} generated twice")
        self._entries[payload.pid] = _LedgerEntry(payload, copies=1)
        self.generated += 1

    def entry_status(self, pid: int) -> str:
        """The payload's current lifecycle state."""
        return self._entries[pid].status

    def copy_count(self, pid: int) -> int:
        """Live physical copies of the payload across all buffers."""
        return self._entries[pid].copies

    def add_copy(self, pid: int) -> None:
        """A replication router duplicated a live payload."""
        entry = self._require_alive(pid, "replicate")
        entry.copies += 1

    def drop_copy(self, pid: int) -> bool:
        """One copy was destroyed (queue overflow / eviction).

        Returns ``True`` when that was the payload's *last* copy, which
        transitions the payload to ``dropped``.
        """
        entry = self._require_alive(pid, "drop a copy of")
        if entry.copies < 1:
            raise SimulationError(f"payload {pid} has no copies to drop")
        entry.copies -= 1
        if entry.copies == 0:
            entry.status = DROPPED
            self.dropped += 1
            return True
        return False

    def deliver(self, pid: int, now: Time, hops: int) -> None:
        """The payload reached its destination; all copies are retired."""
        entry = self._require_alive(pid, "deliver")
        entry.status = DELIVERED
        entry.copies = 0
        entry.delivered_at = now
        entry.delivered_hops = hops
        self.delivered += 1
        latency = now - entry.payload.created_at
        self.latency_total += latency
        self.hops_total += hops
        for index, bound in enumerate(LATENCY_BUCKETS):
            if latency <= bound:
                self.latency_counts[index] += 1
                break
        else:
            self.latency_counts[-1] += 1

    def expire(self, pid: int) -> None:
        """The payload's TTL ran out; every copy is purged together."""
        entry = self._require_alive(pid, "expire")
        entry.status = EXPIRED
        entry.copies = 0
        self.expired += 1

    def _require_alive(self, pid: int, verb: str) -> _LedgerEntry:
        entry = self._entries.get(pid)
        if entry is None:
            raise SimulationError(f"cannot {verb} unknown payload {pid}")
        if entry.status != ALIVE:
            raise SimulationError(
                f"cannot {verb} payload {pid}: already {entry.status}"
            )
        return entry

    # -- conservation views --------------------------------------------

    @property
    def alive(self) -> int:
        """Payloads not yet delivered, expired, or dropped."""
        return self.generated - self.delivered - self.expired - self.dropped

    def copy_counts(self) -> Dict[int, int]:
        """Live-copy count per live payload id."""
        return {
            pid: entry.copies
            for pid, entry in self._entries.items()
            if entry.status == ALIVE
        }

    def conservation_error(self) -> Optional[str]:
        """``None`` when the books balance, else a human-readable message."""
        balance = self.delivered + self.expired + self.dropped + self.alive
        if balance != self.generated:
            return (
                f"payload conservation broken: generated={self.generated} != "
                f"delivered={self.delivered} + expired={self.expired} + "
                f"dropped={self.dropped} + alive={self.alive}"
            )
        return None

    @property
    def delivery_ratio(self) -> float:
        """Delivered fraction of everything generated so far."""
        return self.delivered / self.generated if self.generated else 0.0

    @property
    def mean_latency(self) -> float:
        """Mean end-to-end latency over delivered payloads (steps)."""
        return self.latency_total / self.delivered if self.delivered else 0.0

    @property
    def mean_hops(self) -> float:
        """Mean custody-transfer count over delivered payloads."""
        return self.hops_total / self.delivered if self.delivered else 0.0
