"""Traffic routers: custody store-and-forward plus replication baselines.

Three routers behind one protocol, mirroring the DTN taxonomy:

* :class:`StoreAndForwardRouter` — single-copy custody routing over the
  agent-built routing tables.  A custody transfer needs the *data* to
  cross the lossy channel **and** the receiver's *ack* to make it back;
  either loss leaves custody with the sender, which backs off
  exponentially toward the same next hop (the agent-migration retry
  state machine, re-applied to data) and falls back to buffering after
  the retry budget — payloads are delayed by faults, never leaked.
* :class:`EpidemicRouter` — replicate to every encountered neighbor
  (bounded per-step fanout).  No acks, no retries: a lost replication
  just means that neighbor has no copy yet; the next step tries again.
* :class:`SprayAndWaitRouter` — binary spray-and-wait: each copy
  carries a ticket budget; a successful spray hands half the tickets to
  the new copy.  At one ticket the copy enters the *wait* phase and
  only delivers directly.

All routers deliver greedily: a neighbor that *is* the payload's
delivery point (its unicast destination, or any live gateway for
anycast) is preferred over every table entry, so a lossless
fully-connected topology gives 100% delivery for all three.

Determinism: nodes and candidate targets are iterated in sorted order
and every channel decision is keyed by ``(kind, src, dst, pid)``, so
outcomes are independent of incidental iteration order and identical
between serial and pooled runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.traffic.payload import ALIVE, Payload, PayloadCopy
from repro.types import NodeId, Time

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.traffic.plane import TrafficPlane

__all__ = [
    "ROUTERS",
    "TrafficRouter",
    "StoreAndForwardRouter",
    "EpidemicRouter",
    "SprayAndWaitRouter",
    "make_router",
]

#: Recognised router names (the ``router=`` key of the CLI's ``--traffic``).
ROUTERS = ("store-and-forward", "epidemic", "spray-and-wait")


class TrafficRouter:
    """Common machinery: snapshotting, next-hop choice, delivery checks."""

    name = "abstract"

    def __init__(self, plane: "TrafficPlane") -> None:
        self.plane = plane

    # -- per-step entry point ------------------------------------------

    def forward(self, now: Time) -> None:
        """Run one forwarding round over every live node's buffer.

        The buffers are snapshotted up front: a copy that moves (or is
        replicated) this step is not forwarded again from its new home
        until the next step — one hop per copy per step, like agent
        migration.
        """
        snapshot: List[Tuple[NodeId, List[PayloadCopy]]] = [
            (node, queue.copies())
            for node, queue in self.plane.sorted_queues()
            if len(queue) and not self.plane.topology.is_down(node)
        ]
        for node, copies in snapshot:
            self._forward_node(node, copies, now)

    def _forward_node(
        self, node: NodeId, copies: List[PayloadCopy], now: Time
    ) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    # -- shared helpers -------------------------------------------------

    def _still_held(self, node: NodeId, copy: PayloadCopy) -> bool:
        """Whether ``copy``'s payload is still alive and buffered here."""
        pid = copy.payload.pid
        if self.plane.ledger.entry_status(pid) != ALIVE:
            return False
        return pid in self.plane.queue(node)

    def _live_neighbors(self, node: NodeId) -> List[NodeId]:
        """Sorted out-neighbors that are currently up."""
        topology = self.plane.topology
        return [
            neighbor
            for neighbor in topology.out_neighbors(node)
            if not topology.is_down(neighbor)
        ]

    def _usable_neighbors(
        self, node: NodeId, neighbors: List[NodeId]
    ) -> List[NodeId]:
        """``neighbors`` minus quarantined ones (identity with no monitor).

        The monitor's filter falls back to the full list rather than
        return empty, so quarantine degrades preference without ever
        stranding a payload with zero candidates.
        """
        health = self.plane.health
        if health is None:
            return neighbors
        return health.filter_targets(node, neighbors)

    def _delivery_neighbor(
        self, neighbors: List[NodeId], payload: Payload
    ) -> Optional[NodeId]:
        """A neighbor that *is* the payload's delivery point, if any."""
        for neighbor in neighbors:
            if self.plane.is_delivery_point(neighbor, payload):
                return neighbor
        return None

    def _table_next_hop(
        self, node: NodeId, neighbors: List[NodeId], payload: Payload
    ) -> Optional[NodeId]:
        """Best next hop from the routing tables (anycast only)."""
        if payload.destination is not None:
            return None  # unicast: no tables toward arbitrary nodes
        tables = self.plane.tables
        table = None if tables is None else tables.get(node)
        if table is None:
            return None
        neighbor_set = set(neighbors)
        for entry in table.entries_by_preference():
            if entry.next_hop in neighbor_set:
                return entry.next_hop
        return None


class StoreAndForwardRouter(TrafficRouter):
    """Single-copy custody routing with per-hop ack and bounded backoff."""

    name = "store-and-forward"

    def _forward_node(
        self, node: NodeId, copies: List[PayloadCopy], now: Time
    ) -> None:
        plane = self.plane
        config = plane.config
        budget = config.forward_budget
        live = self._live_neighbors(node)
        # Quarantine is a preference, not a wall: targets resolve from
        # the usable list first and fall back to the full live list when
        # that yields nothing — blocking the only route toward a gateway
        # would strand custody worse than a lossy link does.
        usable = self._usable_neighbors(node, live)
        for copy in copies:
            if budget <= 0:
                break
            if not self._still_held(node, copy):
                continue
            target = self._resolve_target(node, copy, usable, live, now)
            if target is None:
                continue  # custody fallback: keep buffering
            budget -= 1
            if copy.failures > 0:
                plane.counters["retransmissions"] += 1
            pid = copy.payload.pid
            data_ok = plane.attempt(node, target, now, f"pay:{node}:{pid}")
            ack_ok = data_ok and plane.attempt(
                target, node, now, f"payack:{target}:{pid}"
            )
            if plane.health is not None:
                # The missing ack is the sender's only evidence — a gray
                # receiver that swallows data and a dead link look alike,
                # and both belong in the quality estimate.
                plane.health.observe(node, target, data_ok and ack_ok, now)
            if data_ok and ack_ok:
                self._complete_transfer(node, target, copy, now)
            else:
                self._register_failure(copy, target, now)

    def _resolve_target(
        self,
        node: NodeId,
        copy: PayloadCopy,
        usable: List[NodeId],
        live: List[NodeId],
        now: Time,
    ) -> Optional[NodeId]:
        """Where this copy goes this step — or ``None`` to keep buffering."""
        if copy.in_flight:
            if copy.pending_target in live:
                # An in-flight attempt keeps its target even if the hop
                # was quarantined since the last try: the retry budget is
                # nearly spent, abandoning it re-pays the whole backoff
                # ladder elsewhere, and measurements show the churn costs
                # more TTL than the suspect link does.  Quarantine shapes
                # *fresh* target choices only.
                if now < copy.retry_at:
                    return None  # backing off toward the same next hop
                return copy.pending_target
            else:
                # The pending next hop left radio range or died: re-route.
                copy.reset_pending()
                self.plane.counters["reroutes"] += 1
        return self._fresh_target(node, copy, usable, live)

    def _fresh_target(
        self,
        node: NodeId,
        copy: PayloadCopy,
        usable: List[NodeId],
        live: List[NodeId],
    ) -> Optional[NodeId]:
        """Pick a next hop, preferring non-quarantined neighbors.

        Each decision tries the usable list first and falls back to the
        full live list only when the usable one yields nothing — so a
        partially-quarantined neighborhood routes around the suspects,
        while a route reachable *only* through a suspect is still tried
        (a 10%-success link beats buffering until the TTL burns out).
        """
        direct = self._delivery_neighbor(usable, copy.payload)
        if direct is None and usable is not live:
            direct = self._delivery_neighbor(live, copy.payload)
        if direct is not None:
            return direct
        target = self._table_next_hop(node, usable, copy.payload)
        if target is None and usable is not live:
            target = self._table_next_hop(node, live, copy.payload)
        return target

    def _complete_transfer(
        self, node: NodeId, target: NodeId, copy: PayloadCopy, now: Time
    ) -> None:
        """Data and ack both crossed: custody moves (or the payload lands)."""
        plane = self.plane
        pid = copy.payload.pid
        taken = plane.queue(node).remove(pid)
        assert taken is copy
        copy.hops += 1
        copy.reset_pending()
        if plane.is_delivery_point(target, copy.payload):
            plane.deliver(pid, now, copy.hops)
            return
        accepted, evicted = plane.queue(target).offer(copy)
        if evicted is not None:
            plane.drop_shed_copy(evicted)
        if accepted:
            plane.counters["custody_transfers"] += 1
            return
        # The receiver's buffer refused the arrival (backpressure):
        # custody stays with the sender — undo the hop, treat it like a
        # failed attempt so the retry backoff paces the re-offer.
        copy.hops -= 1
        plane.counters["custody_refusals"] += 1
        readmitted, _ = plane.queue(node).offer(copy)
        assert readmitted  # we just freed this slot
        self._register_failure(copy, target, now)

    def _register_failure(
        self, copy: PayloadCopy, target: NodeId, now: Time
    ) -> None:
        """A transfer attempt failed: back off, abandon past the budget."""
        config = self.plane.config
        copy.pending_target = target
        copy.failures += 1
        if copy.failures > config.max_retransmit:
            copy.reset_pending()  # abandon this next hop; re-route next step
            self.plane.counters["abandons"] += 1
            return
        copy.retry_at = now + min(
            config.backoff_cap, config.backoff_base * 2 ** (copy.failures - 1)
        )


class _ReplicationRouter(TrafficRouter):
    """Shared forwarding loop for the replication baselines.

    Replication has no custody handshake: a single keyed channel draw
    decides whether the replica (or the final delivery) arrives.  A lost
    attempt costs nothing but the try — the sender keeps its copy and
    the next step offers again, which is the protocol's natural
    retransmission.
    """

    #: channel key prefix (distinct per router for ``losses_by_kind``).
    kind = "rep"

    def _forward_node(
        self, node: NodeId, copies: List[PayloadCopy], now: Time
    ) -> None:
        budget = self._node_budget()
        for copy in copies:
            if budget <= 0:
                break
            if not self._still_held(node, copy):
                continue
            budget = self._handle_copy(node, copy, now, budget)

    def _node_budget(self) -> int:  # pragma: no cover - overridden
        raise NotImplementedError

    def _handle_copy(
        self, node: NodeId, copy: PayloadCopy, now: Time, budget: int
    ) -> int:  # pragma: no cover - overridden
        raise NotImplementedError

    def _try_direct_delivery(
        self, node: NodeId, copy: PayloadCopy, now: Time, target: NodeId
    ) -> bool:
        """Attempt the final hop to a delivery-point neighbor."""
        plane = self.plane
        pid = copy.payload.pid
        if plane.attempt(node, target, now, f"{self.kind}:{node}:{pid}:{target}"):
            plane.deliver(pid, now, copy.hops + 1)
            return True
        return False

    def _try_replicate(
        self, node: NodeId, copy: PayloadCopy, now: Time, target: NodeId, tickets: int
    ) -> bool:
        """Attempt to stand up a new copy at ``target``; True on success."""
        plane = self.plane
        pid = copy.payload.pid
        if pid in plane.queue(target):
            return False
        if not plane.attempt(node, target, now, f"{self.kind}:{node}:{pid}:{target}"):
            return False
        replica = PayloadCopy(copy.payload, hops=copy.hops + 1, tickets=tickets)
        accepted, evicted = plane.queue(target).offer(replica)
        if evicted is not None:
            plane.drop_shed_copy(evicted)
        if not accepted:
            plane.counters["custody_refusals"] += 1
            return False
        plane.ledger.add_copy(pid)
        plane.counters["replications"] += 1
        return True


class EpidemicRouter(_ReplicationRouter):
    """Flood bounded-fanout replicas to every neighbor lacking the payload."""

    name = "epidemic"
    kind = "epi"

    def _node_budget(self) -> int:
        return self.plane.config.epidemic_fanout

    def _handle_copy(
        self, node: NodeId, copy: PayloadCopy, now: Time, budget: int
    ) -> int:
        live = self._live_neighbors(node)
        neighbors = self._usable_neighbors(node, live)
        direct = self._delivery_neighbor(live, copy.payload)
        if direct is not None:
            budget -= 1
            self._try_direct_delivery(node, copy, now, direct)
            return budget
        # Replicas go to non-quarantined neighbors only: a copy parked
        # on a gray node is a wasted transmission, and replication keeps
        # the original, so skipping suspects costs nothing.
        for target in neighbors:
            if budget <= 0:
                break
            if copy.payload.pid in self.plane.queue(target):
                continue
            budget -= 1
            self._try_replicate(node, copy, now, target, tickets=1)
        return budget


class SprayAndWaitRouter(_ReplicationRouter):
    """Binary spray-and-wait: halve the ticket budget on every spray."""

    name = "spray-and-wait"
    kind = "spr"

    def _node_budget(self) -> int:
        return self.plane.config.forward_budget

    def _handle_copy(
        self, node: NodeId, copy: PayloadCopy, now: Time, budget: int
    ) -> int:
        live = self._live_neighbors(node)
        neighbors = self._usable_neighbors(node, live)
        direct = self._delivery_neighbor(live, copy.payload)
        if direct is not None:
            budget -= 1
            self._try_direct_delivery(node, copy, now, direct)
            return budget
        # Wait phase: one ticket means direct delivery only.
        if copy.tickets <= 1:
            return budget
        for target in neighbors:
            if budget <= 0 or copy.tickets <= 1:
                break
            if copy.payload.pid in self.plane.queue(target):
                continue
            budget -= 1
            give = copy.tickets // 2
            if self._try_replicate(node, copy, now, target, tickets=give):
                copy.tickets -= give
        return budget


def make_router(name: str, plane: "TrafficPlane") -> TrafficRouter:
    """Instantiate the named router bound to ``plane``."""
    if name == "store-and-forward":
        if plane.tables is None:
            raise ConfigurationError(
                "the store-and-forward router needs routing tables; "
                "use 'epidemic' or 'spray-and-wait' in table-less worlds"
            )
        return StoreAndForwardRouter(plane)
    if name == "epidemic":
        return EpidemicRouter(plane)
    if name == "spray-and-wait":
        return SprayAndWaitRouter(plane)
    raise ConfigurationError(
        f"unknown traffic router {name!r}; expected one of {ROUTERS}"
    )
