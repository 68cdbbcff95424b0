"""The connectivity metric.

"To measure the connectivity, the fraction of nodes in the system that
has a valid route to at least one gateway are counted" (§III-C).  A route
is *valid* only if it works right now: starting from the node we follow
routing-table next hops, requiring each hop to be a currently existing
directed link, until a gateway is reached — bounded by a TTL and a
visited-set so broken or looping chains fail cleanly.

Nodes on a successfully walked path are counted as connected too
(everything downstream of them reached a gateway).

:class:`FunctionalConnectivity` computes the same set in near-linear
time.  Each step it derives every routed node's effective next hop from
the current tables and adjacency, resolves all chains at once by
pointer doubling, and falls back to the exact walk for chains that loop.
It keeps no state across steps.  :func:`connected_nodes` stays the
oracle the test suite property-checks it against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

import numpy as _np

from repro.net.topology import Topology
from repro.routing.table import TableBank
from repro.types import NodeId

__all__ = [
    "walk_to_gateway",
    "connectivity_fraction",
    "connected_nodes",
    "ConnectivityCacheStats",
    "FunctionalConnectivity",
]

#: Default hop budget for a validity walk.
DEFAULT_WALK_TTL = 64


def walk_to_gateway(
    node: NodeId,
    topology: Topology,
    tables: TableBank,
    walk_ttl: int = DEFAULT_WALK_TTL,
) -> Optional[List[NodeId]]:
    """The valid next-hop path from ``node`` to a gateway, or ``None``.

    At each node the most preferred entry whose next hop is a *current*
    out-neighbour is taken.  The walk fails on a dead end, a cycle, or
    TTL exhaustion.
    """
    path, reached = _walk_trace(
        node,
        topology.adjacency_view(),
        tables.hops_by_preference,
        set(topology.gateway_ids),
        walk_ttl,
    )
    return path if reached else None


def _walk_trace(
    node: NodeId,
    adjacency,
    hops_of,
    gateway_set: Set[NodeId],
    walk_ttl: int,
) -> Tuple[List[NodeId], bool]:
    """The nodes a validity walk visits, and whether it reached a gateway.

    ``adjacency`` is the topology's out-neighbour rows, ``hops_of`` the
    bank's :meth:`~repro.routing.table.TableBank.hops_by_preference`,
    and ``gateway_set`` the *live* gateways — resolved once by a caller
    walking many starts in one step.  A node whose table names no next
    hop ends the walk without its row being read.
    """
    path = [node]
    current = node
    seen: Set[NodeId] = {node}
    for __ in range(walk_ttl):
        if current in gateway_set:
            return path, True
        hops = hops_of(current)
        if not hops:
            return path, False
        neighbors = adjacency[current]
        next_hop = None
        for hop in hops:
            if hop in neighbors and hop not in seen:
                next_hop = hop
                break
        if next_hop is None:
            return path, False
        path.append(next_hop)
        seen.add(next_hop)
        current = next_hop
    return path, current in gateway_set


def connected_nodes(
    topology: Topology,
    tables: TableBank,
    walk_ttl: int = DEFAULT_WALK_TTL,
) -> Set[NodeId]:
    """Every node with a currently valid route to some gateway.

    Gateways count as connected by definition (they *are* the outside
    world's attachment points).
    """
    connected: Set[NodeId] = set(topology.gateway_ids)
    for node in topology.node_ids:
        if node in connected or topology.is_down(node):
            continue
        path = walk_to_gateway(node, topology, tables, walk_ttl)
        if path is not None:
            # Everyone on the walked path reached the gateway too.
            connected.update(path)
    return connected


def connectivity_fraction(
    topology: Topology,
    tables: TableBank,
    walk_ttl: int = DEFAULT_WALK_TTL,
) -> float:
    """Fraction of nodes currently connected to at least one gateway."""
    return len(connected_nodes(topology, tables, walk_ttl)) / topology.node_count


@dataclass
class ConnectivityCacheStats:
    """Counters for the functional connectivity metric."""

    #: starts resolved by pointer doubling.
    hits: int = 0
    #: exact per-start walks (the routing-loop fallback).
    walks: int = 0


class FunctionalConnectivity:
    """:func:`connected_nodes` via the *effective next hop* function.

    A validity walk consults, at each node, the table's preference order
    filtered twice: by the current out-neighbour set and by the walk's
    own visited set.  The second filter only ever fires on a *repeat* —
    the first time the walk would step onto a node it already visited.
    Until that happens the walk simply follows

        ``eff(w) = first hop in hops_by_preference(w) that is a current
        out-neighbour of w``

    which is a pure per-node function of ``w``'s table and out-edge set.
    ``eff`` turns the network into a functional graph (every node has at
    most one successor), and on that graph walk outcomes compose: if the
    chain from ``w`` terminates (gateway or dead end) without repeating
    a node, no chain *into* ``w`` can overlap the chain out of it — an
    overlap would put ``w`` on a cycle and the chain could never have
    terminated.  So every start resolves at once by pointer doubling
    over ``eff`` (:meth:`_evaluate`): a start is connected iff its chain
    reaches a gateway within ``walk_ttl`` hops.

    Chains that *do* repeat a node (a routing loop) are where the
    visited-set filter changes the outcome, so every start on such a
    chain is evaluated by the exact per-node walk instead.  Loops are
    not rare: at paper scale with 100 agents (history 25, seeds 1–3)
    the fallback ran 71–91 walks per step, more than the 47–68 starts
    the doubling resolved.

    Each call derives ``eff`` from scratch and keeps nothing across
    steps.  Only nodes with a built, non-empty table can have a
    successor: about 230 of 250 at paper scale, a few dozen of 5,000 in
    the large arena.  Reading their rows every step costs less than
    tracking which of them changed, because mobility moves the edges of
    most nodes every step anyway.

    The result set is identical to :func:`connected_nodes` by the
    argument above, which the test suite property-checks under
    mobility, faults and route churn.  Stats: ``hits`` counts starts
    the doubling resolved, ``walks`` exact walks.
    """

    def __init__(
        self,
        topology: Topology,
        tables: TableBank,
        walk_ttl: int = DEFAULT_WALK_TTL,
    ) -> None:
        self.topology = topology
        self.tables = tables
        self.walk_ttl = walk_ttl
        self.stats = ConnectivityCacheStats()
        self._arange = None  # cached numpy arange for _evaluate

    def connected(self) -> Set[NodeId]:
        """Every node with a currently valid route to some gateway.

        Bit-identical to ``connected_nodes(topology, tables, walk_ttl)``.
        """
        topology = self.topology
        adjacency = topology.adjacency_view()  # refreshes the topology
        gateways = tuple(topology.gateway_ids)
        eff = _np.full(topology.node_count, -1, dtype=_np.int64)
        for node, table in self.tables.built():
            hops = table.hops_by_preference()
            if hops:  # an empty table is a dead end: no row read
                neighbors = adjacency[node]
                for hop in hops:
                    if hop in neighbors:
                        eff[node] = hop
                        break
        return self._evaluate(eff, adjacency, self.tables.hops_by_preference, gateways)

    def _evaluate(
        self, eff, adjacency, hops_of, gateways: Tuple[NodeId, ...]
    ) -> Set[NodeId]:
        """Resolve every chain at once by pointer doubling.

        On the functional graph ``eff`` each node has one successor, so
        ``k`` doubling rounds compose jumps of ``2**k`` steps: after
        ``ceil(log2(n))`` rounds every chain that terminates (gateway or
        dead end) has its pointer parked on the terminal and its exact
        hop distance accumulated.  Terminals are self-loops with
        distance zero, which makes the rounds unconditional — parked
        chains simply stop growing.  Chains still unparked afterwards
        repeat a node (a routing loop) and fall back to the exact
        per-start walk in ascending order, skipping starts already
        known connected, so the result set is identical to
        :func:`connected_nodes`.
        """
        stats = self.stats
        n = len(eff)
        walk_ttl = self.walk_ttl
        idx = self._arange
        if idx is None or len(idx) != n:
            idx = self._arange = _np.arange(n)
        gw_mask = _np.zeros(n, dtype=bool)
        gw_list = list(gateways)
        gw_mask[gw_list] = True
        resolved = (eff < 0) | gw_mask  # terminals: dead ends + gateways
        ptr = _np.where(resolved, idx, eff)
        d = _np.where(resolved, 0, 1)  # hops from i to ptr[i]
        # Cover walk_ttl hops: a successful chain must park within the
        # TTL anyway, and anything still unparked afterwards — cycle or
        # over-long chain — goes to the exact walk, which is always
        # correct (it is the definition, the doubling only accelerates).
        cover = 1
        while cover < walk_ttl:
            d += d[ptr]
            ptr = ptr[ptr]
            cover <<= 1
        parked = resolved[ptr]
        success = parked & gw_mask[ptr] & (d <= walk_ttl)
        result: Set[NodeId] = set(gw_list)
        result.update(_np.flatnonzero(success).tolist())
        stats.hits += int(success.sum())
        cyc = _np.flatnonzero(~parked)
        if cyc.size:
            down = self.topology.down_ids
            gateway_set = set(gw_list)
            walks = 0
            for node in cyc.tolist():
                if node in result or node in down:
                    continue
                walks += 1
                path, reached = _walk_trace(
                    node, adjacency, hops_of, gateway_set, walk_ttl
                )
                if reached:
                    result.update(path)
            stats.walks += walks
        return result
