"""Battery model.

The paper assumes mobile nodes "run on battery power … their power will
decrease during the experiment and as a result their radio range
decreases as time goes by" (§III-A).  A :class:`Battery` holds a charge
level in ``[0, 1]`` and a drain model describing how the level decays per
simulation step.  The radio layer couples range to the current level via
:class:`~repro.net.radio.BatteryCoupledRange`.
"""

from __future__ import annotations

import math
from typing import Protocol

from repro.errors import ConfigurationError

__all__ = ["DrainModel", "NoDrain", "LinearDrain", "ExponentialDrain", "Battery"]


class DrainModel(Protocol):
    """Strategy describing per-step battery decay."""

    def drain(self, level: float) -> float:
        """Return the new level given the current ``level`` (both in [0,1])."""
        ...


class NoDrain:
    """Mains-powered: the level never changes (gateways, static nodes)."""

    def drain(self, level: float) -> float:
        return level


class LinearDrain:
    """Loses a fixed amount of charge per step."""

    def __init__(self, per_step: float) -> None:
        if per_step < 0:
            raise ConfigurationError(f"drain per step must be >= 0, got {per_step}")
        self.per_step = per_step

    def drain(self, level: float) -> float:
        return max(0.0, level - self.per_step)


class ExponentialDrain:
    """Loses a fixed *fraction* of the remaining charge per step."""

    def __init__(self, rate: float) -> None:
        if not 0.0 <= rate < 1.0:
            raise ConfigurationError(f"drain rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._keep = 1.0 - rate

    def drain(self, level: float) -> float:
        return level * self._keep


class Battery:
    """A node's energy store: a level in ``[0, 1]`` plus a drain model.

    Once :meth:`~repro.net.topology.Fleet.bind` binds the node (setting
    ``_fleet`` and ``_slot``), the level lives in the fleet's ``level``
    column.
    """

    def __init__(self, drain_model: DrainModel, level: float = 1.0) -> None:
        if not 0.0 <= level <= 1.0:
            raise ConfigurationError(f"battery level must be in [0, 1], got {level}")
        self._drain_model = drain_model
        self._level = level
        self._fleet = None

    @property
    def level(self) -> float:
        """Current charge fraction in ``[0, 1]``."""
        fleet = self._fleet
        return self._level if fleet is None else fleet.level.item(self._slot)

    def _store(self, level: float) -> float:
        if self._fleet is None:
            self._level = level
        else:
            self._fleet.level[self._slot] = level
        return level

    @property
    def depleted(self) -> bool:
        """Whether the battery is (numerically) empty."""
        level = self.level
        return math.isclose(level, 0.0, abs_tol=1e-12) or level <= 0.0

    def step(self) -> float:
        """Apply one step of drain; return the new level."""
        return self._store(min(1.0, max(0.0, self._drain_model.drain(self.level))))

    def shock(self, amount: float) -> float:
        """Instantly lose ``amount`` of charge (a fault-model event).

        Models sudden energy loss — a damaged cell, a cold snap, a burst
        of transmission — as opposed to the gradual drain model.
        Returns the new level.
        """
        if not 0.0 < amount <= 1.0:
            raise ConfigurationError(f"shock amount must be in (0, 1], got {amount}")
        return self._store(max(0.0, self.level - amount))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Battery(level={self.level:.3f})"
