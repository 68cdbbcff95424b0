"""The network node.

A :class:`Node` is purely physical: a position, a radio, a battery and a
mobility model.  Per the paper "the nodes themselves run no programs; all
topology mapping relies on the operation of the agents" (§III-A) — so
agent state (footprint boards) and routing tables are *not* node
attributes; they live in the stigmergy and routing substrates keyed by
node id.  That also keeps this module free of upward dependencies.
"""

from __future__ import annotations

from typing import Optional

from repro.net.battery import Battery, NoDrain
from repro.net.geometry import Arena, Point
from repro.net.mobility import MobilityModel, Stationary
from repro.net.radio import RadioModel
from repro.types import NodeId

__all__ = ["Node"]


class Node:
    """One wireless node: identity, position, radio, battery, mobility.

    Once a topology's :class:`~repro.net.topology.Fleet` adopts it
    (setting ``_fleet``; its slot is its id), the position lives in the
    fleet's ``x``/``y`` columns.
    """

    def __init__(
        self,
        node_id: NodeId,
        position: Point,
        radio: RadioModel,
        battery: Optional[Battery] = None,
        mobility: Optional[MobilityModel] = None,
        is_gateway: bool = False,
    ) -> None:
        self.node_id = node_id
        self._position = position
        self._fleet = None
        self.radio = radio
        self.battery = battery if battery is not None else Battery(NoDrain())
        self.mobility = mobility if mobility is not None else Stationary()
        self.is_gateway = is_gateway
        # Drain models are fixed at construction (faults mutate battery
        # *level*, never the model), so a drainless battery can skip the
        # per-step no-op drain dispatch in :meth:`advance`.
        self._battery_drains = not isinstance(
            self.battery._drain_model, NoDrain
        )

    @property
    def position(self) -> Point:
        """Where the node is now."""
        fleet = self._fleet
        if fleet is None:
            return self._position
        return Point(fleet.x.item(self.node_id), fleet.y.item(self.node_id))

    @position.setter
    def position(self, point: Point) -> None:
        if self._fleet is None:
            self._position = point
        else:
            self._fleet.x[self.node_id], self._fleet.y[self.node_id] = point.x, point.y

    @property
    def is_mobile(self) -> bool:
        """Whether this node's mobility model can actually move it."""
        return not isinstance(self.mobility, Stationary)

    def current_range(self) -> float:
        """Effective radio range right now (may shrink with battery)."""
        return self.radio.current_range()

    def can_reach(self, other: "Node") -> bool:
        """Whether a directed link ``self -> other`` exists right now."""
        radius = self.current_range()
        return self.position.distance_squared_to(other.position) <= radius * radius

    def advance(self, arena: Arena) -> None:
        """Advance one step: drain the battery, then move."""
        if self._battery_drains:
            self.battery.step()
        self.position = self.mobility.move(self.position, arena)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "gateway" if self.is_gateway else "node"
        return (
            f"Node({self.node_id}, {kind}, pos=({self.position.x:.1f}, "
            f"{self.position.y:.1f}), range={self.current_range():.1f})"
        )
