"""Packet-level delivery over agent-built routing tables.

The paper motivates routing with "an average packet will use a multi-hop
path to reach one of those gateways" — the tables exist so *data* can
flow.  This module forwards synthetic packets hop by hop over the
current topology using the tables the agents wrote, yielding delivery
rate and path-stretch statistics.  It is the substrate for the
``examples/packet_delivery.py`` application and for sanity checks that
the connectivity metric predicts real deliverability.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.net.graphutils import bfs_hops
from repro.net.topology import Topology
from repro.rng import derive_seed
from repro.routing.connectivity import DEFAULT_WALK_TTL
from repro.routing.table import TableBank
from repro.types import NodeId

__all__ = ["PacketOutcome", "DeliveryStats", "PacketSimulator"]


@dataclass(frozen=True)
class PacketOutcome:
    """The fate of one packet."""

    source: NodeId
    delivered: bool
    hops: int
    gateway: Optional[NodeId] = None


@dataclass
class DeliveryStats:
    """Aggregate outcomes of a batch of packets."""

    outcomes: List[PacketOutcome] = field(default_factory=list)

    @property
    def sent(self) -> int:
        """Number of packets attempted."""
        return len(self.outcomes)

    @property
    def delivered(self) -> int:
        """Number that reached a gateway."""
        return sum(1 for outcome in self.outcomes if outcome.delivered)

    @property
    def delivery_rate(self) -> float:
        """Delivered fraction (0 when nothing was sent)."""
        return self.delivered / self.sent if self.sent else 0.0

    @property
    def mean_hops(self) -> float:
        """Mean hop count over *delivered* packets."""
        delivered = [o.hops for o in self.outcomes if o.delivered]
        return sum(delivered) / len(delivered) if delivered else 0.0


class PacketSimulator:
    """Forwards packets along routing-table next hops."""

    def __init__(
        self,
        topology: Topology,
        tables: TableBank,
        walk_ttl: int = DEFAULT_WALK_TTL,
    ) -> None:
        self.topology = topology
        self.tables = tables
        self.walk_ttl = walk_ttl

    def send(self, source: NodeId) -> PacketOutcome:
        """Forward one packet from ``source`` toward any gateway."""
        current = source
        visited = {source}
        for hop in range(self.walk_ttl + 1):
            node = self.topology.node(current)
            if node.is_gateway:
                return PacketOutcome(source, True, hop, gateway=current)
            next_hop = self._next_hop(current, visited)
            if next_hop is None:
                return PacketOutcome(source, False, hop)
            visited.add(next_hop)
            current = next_hop
        return PacketOutcome(source, False, self.walk_ttl)

    def _next_hop(self, current: NodeId, visited: set) -> Optional[NodeId]:
        table = self.tables.get(current)
        if table is None:
            return None
        neighbors = self.topology.out_neighbors(current)
        for entry in table.entries_by_preference():
            if entry.next_hop in neighbors and entry.next_hop not in visited:
                return entry.next_hop
        return None

    def send_batch(self, count: int, rng: Union[int, random.Random]) -> DeliveryStats:
        """Send ``count`` packets from uniformly random non-gateway sources.

        ``rng`` is either an explicit :class:`random.Random` or an int
        seed, which is expanded through :func:`repro.rng.derive_seed`
        into a dedicated stream — so the same seed always produces the
        same source sequence regardless of what else has drawn from any
        shared generator.
        """
        if isinstance(rng, int):
            rng = random.Random(derive_seed(rng, "packets:batch"))
        sources = sorted(
            node_id
            for node_id in self.topology.node_ids
            if not self.topology.node(node_id).is_gateway
        )
        stats = DeliveryStats()
        for __ in range(count):
            stats.outcomes.append(self.send(rng.choice(sources)))
        return stats

    def path_stretch(self, outcome: PacketOutcome) -> Optional[float]:
        """Delivered path length relative to the current shortest path.

        ``None`` when the packet failed or no path exists right now.
        """
        if not outcome.delivered or outcome.gateway is None:
            return None
        hops = bfs_hops(self.topology.adjacency_copy(), outcome.source)
        shortest = min(
            (hops[g] for g in self.topology.gateway_ids if g in hops),
            default=None,
        )
        if not shortest:
            return None
        return outcome.hops / shortest
