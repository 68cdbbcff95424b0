"""Hand-specified topologies.

Most of the library derives links from geometry, but tests, examples and
downstream experiments often want an *exact* graph ("a ring of five
nodes", "this 2-SCC digraph").  :class:`FixedTopology` is a
:class:`~repro.net.topology.Topology` whose adjacency is pinned to a
given edge set: nodes are laid out on a circle for display purposes, and
``recompute`` restores the pinned adjacency instead of deriving it, so
motion and battery events can never change the links.  Fault state is
still honoured: crashed nodes and blacked-out links disappear from the
pinned graph exactly as they do from a geometric one.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

import numpy as _np

from repro.errors import TopologyError
from repro.net.geometry import Arena, Point
from repro.net.node import Node
from repro.net.radio import FixedRange
from repro.types import Edge, NodeId

__all__ = ["FixedTopology", "fixed_topology"]


class FixedTopology:
    """Builds a :class:`Topology` with a pinned adjacency."""

    def __new__(
        cls,
        node_count: int,
        edges: Iterable[Edge],
        gateways: Sequence[NodeId] = (),
        arena: Optional[Arena] = None,
    ):
        return fixed_topology(node_count, edges, gateways, arena)


def fixed_topology(
    node_count: int,
    edges: Iterable[Edge],
    gateways: Sequence[NodeId] = (),
    arena: Optional[Arena] = None,
):
    """A topology with exactly the given directed ``edges``.

    Nodes are numbered ``0..node_count-1`` and placed evenly on a circle.
    ``gateways`` marks gateway nodes.  Edges referring to unknown nodes
    raise :class:`~repro.errors.TopologyError`.
    """
    from repro.net.topology import Topology

    if node_count < 1:
        raise TopologyError(f"node_count must be >= 1, got {node_count}")
    ids = range(node_count)
    packed = []
    for source, destination in edges:
        if source not in ids or destination not in ids:
            raise TopologyError(
                f"edge ({source}, {destination}) refers to a node outside "
                f"0..{node_count - 1}"
            )
        if source == destination:
            raise TopologyError(f"self-loop ({source}, {destination}) not allowed")
        packed.append(source * node_count + destination)
    pinned = _np.unique(_np.array(packed, dtype=_np.int64))

    arena = arena if arena is not None else Arena(100.0, 100.0)
    gateway_set = set(gateways)
    radius = min(arena.width, arena.height) * 0.4
    center = Point(arena.width / 2.0, arena.height / 2.0)
    nodes = []
    for node_id in range(node_count):
        angle = 2.0 * math.pi * node_id / node_count
        position = Point(
            center.x + radius * math.cos(angle),
            center.y + radius * math.sin(angle),
        )
        nodes.append(
            Node(
                node_id,
                position,
                FixedRange(1.0),
                is_gateway=node_id in gateway_set,
            )
        )

    topology = Topology(nodes, arena)
    topology._pinned = True

    def recompute() -> None:
        # Restore the pinned edges minus the fault state (crashed nodes
        # lose every link, blacked-out links are removed), through the
        # same apply step as a geometric refresh: an unchanged pinned
        # graph yields an empty delta, so downstream caches stay warm.
        topology._apply(topology._without_faults(pinned))

    topology.recompute = recompute  # type: ignore[method-assign]
    topology.recompute()
    return topology
