"""Sharded arena: spatial tiles, boundary exchange, 10k+-node runs.

The paper's world is 250–300 nodes; production scale is tens of
thousands.  Every piece of per-step state in the routing world is
node-local — tables, stigmergy boards, resident agents, out-edges — so
the arena partitions into rectangular spatial tiles that step
independently and exchange only boundary state: node hand-overs when
motion crosses a tile edge, agent hand-offs when a delivered hop lands
on another tile, and per-tile packed edge deltas (the
:func:`~repro.net.topology.edge_delta` format) merged into one global
adjacency for the connectivity metric and observability.

``ShardedRoutingWorld`` is bit-identical to the serial
:class:`~repro.routing.world.RoutingWorld` at *any* shard count — the
property suite pins single-shard and multi-shard runs against the
serial results, tables, and obs metrics.
"""

from repro.shard.tiles import TileAdjacency, TileGrid
from repro.shard.world import ShardedRoutingWorld, run_sharded_routing

__all__ = [
    "TileAdjacency",
    "TileGrid",
    "ShardedRoutingWorld",
    "run_sharded_routing",
]
