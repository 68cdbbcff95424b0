"""Radio range models.

The effective radio range of a node determines which other nodes can hear
it: there is a directed link ``u -> v`` iff ``dist(u, v) <= range(u)``.

Three models cover the paper's environments:

* :class:`FixedRange` — Minar's original assumption: every node has the
  same constant range, so links are symmetric and the topology graph is
  effectively undirected.
* :class:`HeterogeneousRange` — the paper's relaxation: "the radio range
  of nodes is not always the same, so there might exist a link from node
  A to node B but not vice versa" (§II-A).  Each node gets its own base
  range.
* :class:`BatteryCoupledRange` — the paper's battery effect: the range
  shrinks with the node's battery level, modelling transmit-power
  reduction as energy depletes.

Inside a topology the fleet (:class:`~repro.net.topology.Fleet`) owns
the ranges, one ``r`` column, and the parameters of the radios that
change: a bound :class:`HeterogeneousRange` or :class:`BatteryCoupledRange`
reads and writes its slot of the fleet's columns.  A
:class:`FixedRange` never changes, so the fleet copies its range once.
"""

from __future__ import annotations

from typing import Optional, Protocol

from repro.errors import ConfigurationError
from repro.net.battery import Battery

__all__ = ["RadioModel", "FixedRange", "HeterogeneousRange", "BatteryCoupledRange"]


class RadioModel(Protocol):
    """Strategy giving a node's current effective radio range."""

    def current_range(self) -> float:
        """Effective range in arena units at this instant."""
        ...


class FixedRange:
    """A constant radio range (Minar-style homogeneous radios)."""

    def __init__(self, value: float) -> None:
        if value <= 0:
            raise ConfigurationError(f"radio range must be positive, got {value}")
        self._value = value

    def current_range(self) -> float:
        return self._value


def _column(name: str) -> property:
    """A radio parameter the radio keeps until bound, then the fleet's ``name`` column.

    :meth:`~repro.net.topology.Fleet.bind` binds a radio by setting
    ``_fleet`` and ``_slot``; a write to a bound radio's parameter
    rewrites its range at once.
    """
    own = "_" + name

    def read(radio) -> float:
        fleet = radio._fleet
        return getattr(radio, own) if fleet is None else getattr(fleet, name).item(radio._slot)

    def write(radio, value: float) -> None:
        fleet = radio._fleet
        if fleet is None:
            setattr(radio, own, value)
        else:
            getattr(fleet, name)[radio._slot] = value
            fleet.r[radio._slot] = radio._derive()

    return property(read, write)


class HeterogeneousRange:
    """A per-node constant range, optionally degraded by a fixed factor.

    ``degradation`` models the paper's "degradation on a percentage of
    radio links due to reliance on battery power": a degraded node keeps
    ``1 - degradation`` of its base range.  Degradation may be applied
    after construction (e.g. by a scheduled event mid-run).
    """

    base = _column("base")

    def __init__(self, base: float, degradation: float = 0.0) -> None:
        if base <= 0:
            raise ConfigurationError(f"radio range must be positive, got {base}")
        if not 0.0 <= degradation < 1.0:
            raise ConfigurationError(f"degradation must be in [0, 1), got {degradation}")
        self._fleet = None
        self.base = base
        self._degradation = degradation

    @property
    def degradation(self) -> float:
        """Current degradation fraction in ``[0, 1)``."""
        return self._degradation

    def degrade(self, fraction: float) -> None:
        """Set the degradation fraction (replaces, does not compound)."""
        if not 0.0 <= fraction < 1.0:
            raise ConfigurationError(f"degradation must be in [0, 1), got {fraction}")
        self._degradation = fraction
        if self._fleet is not None:
            self._fleet.r[self._slot] = self._derive()

    def _derive(self) -> float:
        return self.base * (1.0 - self._degradation)

    def current_range(self) -> float:
        fleet = self._fleet
        return self._derive() if fleet is None else fleet.r.item(self._slot)


class BatteryCoupledRange:
    """Range proportional to battery level, with an optional floor.

    ``range = max(floor, base * level ** exponent)``.  With the default
    ``exponent=0.5`` the range decays slower than the battery itself
    (radio range goes roughly with the square root of transmit power),
    which keeps the MANET from collapsing unrealistically fast while still
    producing the paper's "links broken and reformed frequently".  Bound,
    its range follows the level on every fleet step and
    :meth:`~repro.net.topology.Topology.invalidate`.
    """

    base = _column("base")
    floor = _column("floor")
    exponent = _column("exponent")

    def __init__(
        self,
        base: float,
        battery: Battery,
        exponent: float = 0.5,
        floor: Optional[float] = None,
    ) -> None:
        if base <= 0:
            raise ConfigurationError(f"radio range must be positive, got {base}")
        if exponent <= 0:
            raise ConfigurationError(f"exponent must be positive, got {exponent}")
        if floor is not None and floor < 0:
            raise ConfigurationError(f"floor must be >= 0, got {floor}")
        self._fleet = None
        self.base = base
        self.battery = battery
        self.exponent = exponent
        self.floor = floor if floor is not None else 0.0

    def _derive(self) -> float:
        scaled = self.base * (self.battery.level**self.exponent)
        return max(self.floor, scaled)

    def current_range(self) -> float:
        fleet = self._fleet
        return self._derive() if fleet is None else fleet.r.item(self._slot)
