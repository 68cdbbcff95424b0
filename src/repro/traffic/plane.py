"""The traffic plane: one world's data plane, wired into the step loop.

:class:`TrafficConfig` is the frozen, picklable switchboard that rides
inside the world configs (``traffic=None`` — the default — builds
nothing, so baseline runs stay bit-identical).  When set, the world
builds one :class:`TrafficPlane`, registered as its own engine process
*after* the world's step, so payloads move over the tables the agents
just wrote and the topology the substrate just advanced.

Each plane step:

1. **generate** — the seeded :class:`PayloadGenerator` emits arrivals;
   each is registered in the :class:`TrafficLedger` and offered to its
   source's bounded queue (a full source buffer sheds per policy, with
   exact ledger accounting),
2. **expire** — payloads past their TTL are purged from every buffer
   and retired together,
3. **collect** — copies already sitting on their delivery point (a
   destination that recovered from a crash, say) are delivered,
4. **forward** — the configured router runs one forwarding round,
5. **account** — buffered/in-flight levels go to the obs rings, and the
   conservation invariant is checkable by the
   :class:`~repro.sim.invariants.InvariantChecker`.

Crash semantics: a payload buffered on a node that dies stays in that
buffer, alive and accounted — custody survives the crash.  Forwarding
simply skips down nodes (as sender and as target), so the backlog
drains when the node recovers.  Faults delay data; only queue overflow
and TTL expiry may retire it, and both leave receipts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError
from repro.net.topology import Topology
from repro.rng import SeedSpawner
from repro.traffic.generator import TRAFFIC_PROFILES, PayloadGenerator
from repro.traffic.payload import (
    ALIVE,
    LATENCY_BUCKETS,
    Payload,
    PayloadCopy,
    TrafficLedger,
)
from repro.traffic.queues import QUEUE_POLICIES, PayloadQueue
from repro.traffic.routers import ROUTERS, make_router
from repro.types import NodeId, Time

__all__ = [
    "TrafficConfig",
    "TrafficPlane",
    "TrafficReport",
    "TRAFFIC_REPORT_SCHEMA",
]

#: bumped when the report layout changes incompatibly.
TRAFFIC_REPORT_SCHEMA = 1

#: plane counter names, fixed so reports are stable and comparable.
_COUNTER_NAMES = (
    "custody_transfers",
    "retransmissions",
    "abandons",
    "reroutes",
    "custody_refusals",
    "replications",
    "source_drops",
    "overflow_drops",
    "stranded_copies",
)


@dataclass(frozen=True)
class TrafficConfig:
    """Workload, buffering, and routing knobs for one world's data plane.

    Frozen and hashable so it can ride inside the (also frozen) world
    configs, pickle across ``multiprocessing`` workers, and key sweep
    checkpoints.
    """

    #: arrival profile: ``poisson``, ``burst``, or ``cbr``.
    profile: str = "poisson"
    #: expected payloads per step (poisson / cbr).
    rate: float = 0.5
    #: payloads per burst (burst profile).
    burst_size: int = 8
    #: steps between bursts (burst profile).
    burst_every: int = 10
    #: per-node buffer capacity.
    queue_capacity: int = 16
    #: overflow policy: ``drop-tail``, ``drop-oldest``, or ``priority``.
    queue_policy: str = "drop-tail"
    #: payload lifetime in steps.
    payload_ttl: int = 60
    #: ``store-and-forward``, ``epidemic``, or ``spray-and-wait``.
    router: str = "store-and-forward"
    #: failed custody transfers tolerated before abandoning a next hop.
    max_retransmit: int = 3
    #: first retry waits this many steps; each further retry doubles it.
    backoff_base: int = 1
    #: longest wait between retransmissions (clamps the exponential).
    backoff_cap: int = 64
    #: custody/spray transfer attempts per node per step.
    forward_budget: int = 4
    #: epidemic replications per node per step.
    epidemic_fanout: int = 2
    #: initial spray-and-wait ticket budget per payload.
    spray_copies: int = 8
    #: distinct priority classes (uniformly drawn; 1 = everything equal).
    priority_levels: int = 1
    #: first step payloads arrive.
    start: int = 0
    #: stop generating at this step (``None`` = the whole run).
    stop: Optional[int] = None

    def __post_init__(self) -> None:
        if self.profile not in TRAFFIC_PROFILES:
            raise ConfigurationError(
                f"unknown traffic profile {self.profile!r}; "
                f"expected one of {TRAFFIC_PROFILES}"
            )
        if self.router not in ROUTERS:
            raise ConfigurationError(
                f"unknown traffic router {self.router!r}; expected one of {ROUTERS}"
            )
        if self.queue_policy not in QUEUE_POLICIES:
            raise ConfigurationError(
                f"unknown queue policy {self.queue_policy!r}; "
                f"expected one of {QUEUE_POLICIES}"
            )
        if self.rate < 0:
            raise ConfigurationError(f"traffic rate must be >= 0, got {self.rate}")
        for name in (
            "burst_size",
            "burst_every",
            "queue_capacity",
            "payload_ttl",
            "backoff_base",
            "backoff_cap",
            "forward_budget",
            "epidemic_fanout",
            "spray_copies",
            "priority_levels",
        ):
            value = getattr(self, name)
            if value < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {value}")
        if self.max_retransmit < 0:
            raise ConfigurationError(
                f"max_retransmit must be >= 0, got {self.max_retransmit}"
            )
        if self.start < 0:
            raise ConfigurationError(f"start must be >= 0, got {self.start}")
        if self.stop is not None and self.stop <= self.start:
            raise ConfigurationError(
                f"stop must be after start, got start={self.start} stop={self.stop}"
            )


@dataclass
class TrafficReport:
    """One run's data-plane outcome (picklable, JSON-safe fields).

    Compares by value, so the serial ≡ pooled bit-identity tests can
    assert on whole reports.
    """

    schema: int = TRAFFIC_REPORT_SCHEMA
    router: str = "store-and-forward"
    generated: int = 0
    delivered: int = 0
    expired: int = 0
    dropped: int = 0
    in_flight: int = 0
    buffered: int = 0
    delivery_ratio: float = 0.0
    mean_latency: float = 0.0
    mean_hops: float = 0.0
    latency_bounds: List[int] = field(default_factory=lambda: list(LATENCY_BUCKETS))
    latency_counts: List[int] = field(
        default_factory=lambda: [0] * (len(LATENCY_BUCKETS) + 1)
    )
    counters: Dict[str, int] = field(
        default_factory=lambda: {name: 0 for name in _COUNTER_NAMES}
    )
    queues: Dict[str, int] = field(default_factory=dict)


class TrafficPlane:
    """One world's store-and-forward data plane."""

    def __init__(
        self,
        topology: Topology,
        config: TrafficConfig,
        spawner: SeedSpawner,
        channel: Any = None,
        tables: Any = None,
        obs: Any = None,
        unicast: bool = False,
        health: Any = None,
    ) -> None:
        self.topology = topology
        self.config = config
        self.channel = channel
        self.tables = tables
        #: the world's :class:`~repro.net.health.HealthMonitor` (or
        #: ``None``): routers exclude quarantined neighbors from custody
        #: transfer and replication, and feed ack outcomes back in.
        self.health = health
        self.ledger = TrafficLedger()
        self.counters: Dict[str, int] = {name: 0 for name in _COUNTER_NAMES}
        self._queues: Dict[NodeId, PayloadQueue] = {}
        self._payloads: Dict[int, Payload] = {}
        self._gateways: Set[NodeId] = set(topology.gateway_ids)
        self._obs = obs
        sources = [
            node for node in topology.node_ids if node not in self._gateways
        ]
        if not sources:  # all-gateway networks still generate somewhere
            sources = list(topology.node_ids)
        self.generator = PayloadGenerator(
            profile=config.profile,
            rate=config.rate,
            sources=sources,
            spawner=spawner,
            ttl=config.payload_ttl,
            burst_size=config.burst_size,
            burst_every=config.burst_every,
            unicast_targets=list(topology.node_ids) if unicast else None,
            priority_levels=config.priority_levels,
            start=config.start,
            stop=config.stop,
        )
        self.router = make_router(config.router, self)

    # ------------------------------------------------------------------
    # Wiring helpers
    # ------------------------------------------------------------------

    def install(self, engine: Any) -> None:
        """Register the plane's step process and fault listener."""
        engine.add_process(self.step)
        engine.hooks.subscribe("fault_injected", self._on_fault)

    def _on_fault(self, *, time: Time, kind: str, target: Any, applied: bool) -> None:
        """Count the copies a node crash strands (custody still holds)."""
        if kind != "crash" or not applied:
            return
        for node in target:
            queue = self._queues.get(node)
            if queue is not None:
                self.counters["stranded_copies"] += len(queue)

    # ------------------------------------------------------------------
    # State the routers program against
    # ------------------------------------------------------------------

    def queue(self, node: NodeId) -> PayloadQueue:
        """The node's buffer (created lazily, shared capacity/policy)."""
        queue = self._queues.get(node)
        if queue is None:
            queue = PayloadQueue(self.config.queue_capacity, self.config.queue_policy)
            self._queues[node] = queue
        return queue

    def sorted_queues(self) -> List[Tuple[NodeId, PayloadQueue]]:
        """Every materialised buffer in node order (deterministic scans)."""
        return sorted(self._queues.items())

    def is_delivery_point(self, node: NodeId, payload: Payload) -> bool:
        """Whether a live ``node`` completes ``payload``'s journey."""
        if self.topology.is_down(node):
            return False
        if payload.destination is not None:
            return node == payload.destination
        return node in self._gateways

    def attempt(self, source: NodeId, destination: NodeId, now: Time, key: str) -> bool:
        """One keyed channel draw (always succeeds with no channel)."""
        if self.channel is None:
            return True
        return self.channel.attempt(source, destination, now, key)

    def deliver(self, pid: int, now: Time, hops: int) -> None:
        """Retire a delivered payload and purge its other copies."""
        self.ledger.deliver(pid, now, hops)
        self._purge_everywhere({pid})
        del self._payloads[pid]

    def drop_shed_copy(self, copy: PayloadCopy) -> None:
        """Account one copy shed by a queue's overflow policy."""
        self.counters["overflow_drops"] += 1
        if self.ledger.drop_copy(copy.payload.pid):
            self._payloads.pop(copy.payload.pid, None)

    def _purge_everywhere(self, pids: Set[int]) -> None:
        for __, queue in self.sorted_queues():
            queue.purge(pids)

    # ------------------------------------------------------------------
    # The per-step process
    # ------------------------------------------------------------------

    def step(self, now: Time) -> None:
        """One data-plane round: generate, expire, collect, forward."""
        self._generate(now)
        self._expire(now)
        self._collect(now)
        self.router.forward(now)
        if self._obs is not None:
            in_flight, buffered = self.flight_split()
            self._obs.traffic_step(
                now,
                generated=self.ledger.generated,
                delivered=self.ledger.delivered,
                buffered=buffered,
                in_flight=in_flight,
            )

    def _generate(self, now: Time) -> None:
        for payload in self.generator.step(now):
            self.ledger.register(payload)
            self._payloads[payload.pid] = payload
            if self.is_delivery_point(payload.source, payload):
                # Degenerate but legal: the source already is the
                # destination (single-candidate unicast).  Zero hops.
                self.ledger.deliver(payload.pid, now, 0)
                continue
            tickets = (
                self.config.spray_copies
                if self.config.router == "spray-and-wait"
                else 1
            )
            copy = PayloadCopy(payload, tickets=tickets)
            accepted, evicted = self.queue(payload.source).offer(copy)
            if evicted is not None:
                self.drop_shed_copy(evicted)
            if not accepted:
                self.counters["source_drops"] += 1
                if self.ledger.drop_copy(payload.pid):
                    del self._payloads[payload.pid]

    def _expire(self, now: Time) -> None:
        doomed = {
            pid
            for pid, payload in self._payloads.items()
            if self.ledger.entry_status(pid) == ALIVE and payload.expired_at(now)
        }
        if not doomed:
            return
        self._purge_everywhere(doomed)
        for pid in sorted(doomed):
            self.ledger.expire(pid)
            del self._payloads[pid]

    def _collect(self, now: Time) -> None:
        """Deliver copies already standing on their delivery point."""
        for node, queue in self.sorted_queues():
            if not len(queue) or self.topology.is_down(node):
                continue
            for copy in queue.copies():
                pid = copy.payload.pid
                if self.ledger.entry_status(pid) != ALIVE:
                    continue
                if self.is_delivery_point(node, copy.payload):
                    self.deliver(pid, now, copy.hops)

    # ------------------------------------------------------------------
    # Accounting views
    # ------------------------------------------------------------------

    def flight_split(self) -> Tuple[int, int]:
        """``(in_flight, buffered)`` — a partition of the alive payloads.

        A payload is *in flight* when any of its copies is mid
        custody-transfer (a pending retransmission); otherwise it is
        *buffered*.  ``in_flight + buffered == ledger.alive`` always.
        """
        pending: Set[int] = set()
        for __, queue in self.sorted_queues():
            for copy in queue.copies():
                if copy.in_flight:
                    pending.add(copy.payload.pid)
        in_flight = len(pending)
        return in_flight, self.ledger.alive - in_flight

    def physical_copy_counts(self) -> Dict[int, int]:
        """Copies per payload actually present in buffers (cross-check)."""
        counts: Dict[int, int] = {}
        for __, queue in self.sorted_queues():
            for copy in queue.copies():
                pid = copy.payload.pid
                counts[pid] = counts.get(pid, 0) + 1
        return counts

    def consistency_problems(self) -> List[str]:
        """Every way the plane's books could disagree with its buffers."""
        problems: List[str] = []
        error = self.ledger.conservation_error()
        if error is not None:
            problems.append(error)
        physical = self.physical_copy_counts()
        recorded = self.ledger.copy_counts()
        for pid in sorted(set(physical) | set(recorded)):
            have = physical.get(pid, 0)
            want = recorded.get(pid, 0)
            if have != want:
                problems.append(
                    f"payload {pid}: ledger records {want} copies, "
                    f"buffers hold {have}"
                )
        for node, queue in self.sorted_queues():
            if len(queue) > queue.capacity:
                problems.append(
                    f"queue on node {node} holds {len(queue)} copies "
                    f"over capacity {queue.capacity}"
                )
        return problems

    def report(self) -> TrafficReport:
        """The run's final data-plane outcome."""
        in_flight, buffered = self.flight_split()
        queue_totals: Dict[str, int] = {
            "offered": 0,
            "accepted": 0,
            "rejected": 0,
            "evicted": 0,
            "duplicates": 0,
            "peak": 0,
        }
        for __, queue in self.sorted_queues():
            for name, value in queue.counters().items():
                if name == "peak":
                    queue_totals["peak"] = max(queue_totals["peak"], value)
                else:
                    queue_totals[name] += value
        ledger = self.ledger
        return TrafficReport(
            router=self.config.router,
            generated=ledger.generated,
            delivered=ledger.delivered,
            expired=ledger.expired,
            dropped=ledger.dropped,
            in_flight=in_flight,
            buffered=buffered,
            delivery_ratio=ledger.delivery_ratio,
            mean_latency=ledger.mean_latency,
            mean_hops=ledger.mean_hops,
            latency_counts=list(ledger.latency_counts),
            counters=dict(self.counters),
            queues=queue_totals,
        )
