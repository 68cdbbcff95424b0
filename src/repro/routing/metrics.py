"""Route-quality metrics beyond the paper's connectivity fraction.

Connectivity says *whether* a node can reach a gateway; these metrics
say *how well*:

* **route stretch** — the ratio of a node's walked route length to the
  current shortest path toward any gateway (1.0 = optimal);
* **table coverage** — the fraction of nodes holding at least one live
  route entry, valid or not (how far the agents' writes have spread);
* **gateway load** — how evenly the valid routes distribute over the
  gateways (normalised entropy; 1.0 = perfectly balanced).

The ``abl6`` experiment uses these to compare agent types on route
*quality*, which the paper's single metric cannot distinguish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.net.graphutils import bfs_hops, reversed_adjacency
from repro.net.topology import Topology
from repro.routing.connectivity import DEFAULT_WALK_TTL, walk_to_gateway
from repro.routing.table import TableBank
from repro.types import NodeId

__all__ = ["RouteQuality", "measure_route_quality"]


@dataclass(frozen=True)
class RouteQuality:
    """A snapshot of route quality across the network."""

    connectivity: float
    mean_stretch: Optional[float]
    table_coverage: float
    gateway_balance: Optional[float]
    connected_count: int
    measured_routes: int


def _gateway_distances(topology: Topology) -> Dict[NodeId, int]:
    """Shortest hop count from every node to its nearest gateway."""
    # BFS from each gateway over the reversed graph gives, per node, the
    # distance *to* that gateway; keep the minimum over gateways.
    reversed_adj = reversed_adjacency(topology.adjacency_copy())
    nearest: Dict[NodeId, int] = {}
    for gateway in topology.gateway_ids:
        for node, hops in bfs_hops(reversed_adj, gateway).items():
            if node not in nearest or hops < nearest[node]:
                nearest[node] = hops
    return nearest


def measure_route_quality(
    topology: Topology,
    tables: TableBank,
    walk_ttl: int = DEFAULT_WALK_TTL,
) -> RouteQuality:
    """Measure stretch, coverage and balance over the current instant."""
    nearest = _gateway_distances(topology)
    gateways = set(topology.gateway_ids)
    stretches: List[float] = []
    gateway_hits: Dict[NodeId, int] = {g: 0 for g in gateways}
    connected = 0
    covered = 0
    for node in topology.node_ids:
        table = tables.get(node)
        if table is not None and len(table) > 0:
            covered += 1
        if node in gateways:
            connected += 1
            continue
        path = walk_to_gateway(node, topology, tables, walk_ttl)
        if path is None:
            continue
        connected += 1
        gateway_hits[path[-1]] = gateway_hits.get(path[-1], 0) + 1
        shortest = nearest.get(node)
        if shortest:
            stretches.append((len(path) - 1) / shortest)
    total_hits = sum(gateway_hits.values())
    balance: Optional[float] = None
    if total_hits > 0 and len(gateways) > 1:
        entropy = 0.0
        for hits in gateway_hits.values():
            if hits > 0:
                p = hits / total_hits
                entropy -= p * math.log(p)
        balance = entropy / math.log(len(gateways))
    return RouteQuality(
        connectivity=connected / topology.node_count,
        mean_stretch=(sum(stretches) / len(stretches)) if stretches else None,
        table_coverage=covered / topology.node_count,
        gateway_balance=balance,
        connected_count=connected,
        measured_routes=len(stretches),
    )
