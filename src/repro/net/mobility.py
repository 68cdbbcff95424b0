"""Node mobility models.

The routing scenario gives "random velocity to half of the nodes"
(§III-A).  :class:`RandomVelocity` draws each node a speed from a range
and a random heading, then moves it in a straight line, bouncing off the
arena boundary — links break and reform as nodes drift in and out of each
other's radio ranges.  :class:`RandomWaypoint` is included as the other
classic MANET model for experiments beyond the paper's; the mapping
scenario uses :class:`Stationary`.
"""

from __future__ import annotations

import math
import random
from typing import Protocol

from repro.errors import ConfigurationError
from repro.net.geometry import Arena, Point

__all__ = ["MobilityModel", "Stationary", "RandomVelocity", "RandomWaypoint"]


class MobilityModel(Protocol):
    """Strategy yielding a node's next position each step."""

    def move(self, position: Point, arena: Arena) -> Point:
        """Return the position after one time step from ``position``."""
        ...


class Stationary:
    """The node never moves (mapping scenario, gateways)."""

    def move(self, position: Point, arena: Arena) -> Point:
        return position


class RandomVelocity:
    """Constant-speed straight-line motion with boundary bounce.

    The speed is drawn once (per node) from ``[min_speed, max_speed]`` and
    the initial heading uniformly from ``[0, 2*pi)`` — this is the paper's
    "random velocity" assignment.  On hitting an arena wall the velocity
    component normal to the wall is reflected.

    Once a topology's :class:`~repro.net.topology.Fleet` adopts the node
    (setting ``_fleet`` and ``_slot``), the velocity lives in its
    ``vx``/``vy`` columns.
    """

    def __init__(self, rng: random.Random, min_speed: float, max_speed: float) -> None:
        if min_speed < 0 or max_speed < min_speed:
            raise ConfigurationError(
                f"need 0 <= min_speed <= max_speed, got [{min_speed}, {max_speed}]"
            )
        self.speed = rng.uniform(min_speed, max_speed)
        heading = rng.uniform(0.0, 2.0 * math.pi)
        self._vx = self.speed * math.cos(heading)
        self._vy = self.speed * math.sin(heading)
        self._fleet = None

    @classmethod
    def moving(cls, speed: float, vx: float, vy: float) -> "RandomVelocity":
        """A model already drawn: ``speed`` and its velocity ``(vx, vy)``."""
        model = cls.__new__(cls)
        model.speed, model._vx, model._vy, model._fleet = speed, vx, vy, None
        return model

    @property
    def velocity(self) -> Point:
        """Current velocity vector as a :class:`Point` (dx, dy per step)."""
        fleet = self._fleet
        if fleet is None:
            return Point(self._vx, self._vy)
        return Point(fleet.vx.item(self._slot), fleet.vy.item(self._slot))

    #: bound on reflections per axis per step — a node can cross the
    #: arena at most speed/dimension times, so this is never reached for
    #: any sane speed; it guards termination for adversarial configs.
    _MAX_REFLECTIONS = 10_000

    def move(self, position: Point, arena: Arena) -> Point:
        velocity = self.velocity
        vx, vy = velocity.x, velocity.y
        x = position.x + vx
        y = position.y + vy
        # Reflect until back in bounds: a speed larger than an arena
        # dimension can overshoot past the far wall, so one bounce per
        # axis is not enough (it used to pin such nodes to a wall).
        for __ in range(self._MAX_REFLECTIONS):
            if x < 0.0:
                x = -x
                vx = -vx
            elif x > arena.width:
                x = 2.0 * arena.width - x
                vx = -vx
            else:
                break
        for __ in range(self._MAX_REFLECTIONS):
            if y < 0.0:
                y = -y
                vy = -vy
            elif y > arena.height:
                y = 2.0 * arena.height - y
                vy = -vy
            else:
                break
        if self._fleet is None:
            self._vx, self._vy = vx, vy
        else:
            self._fleet.vx[self._slot], self._fleet.vy[self._slot] = vx, vy
        # The reflection loops leave (x, y) inside the arena already, so
        # clamping would be an identity — skip the extra Point.
        return Point(x, y)


class RandomWaypoint:
    """Classic random-waypoint mobility: pick a target, walk to it, repeat.

    ``pause`` steps are spent at each waypoint before choosing the next.
    """

    def __init__(
        self,
        rng: random.Random,
        min_speed: float,
        max_speed: float,
        pause: int = 0,
    ) -> None:
        if min_speed <= 0 or max_speed < min_speed:
            raise ConfigurationError(
                f"need 0 < min_speed <= max_speed, got [{min_speed}, {max_speed}]"
            )
        if pause < 0:
            raise ConfigurationError(f"pause must be >= 0, got {pause}")
        self._rng = rng
        self._min_speed = min_speed
        self._max_speed = max_speed
        self._pause = pause
        self._target: Point | None = None
        self._speed = 0.0
        self._pause_left = 0

    def move(self, position: Point, arena: Arena) -> Point:
        if self._pause_left > 0:
            self._pause_left -= 1
            return position
        if self._target is None:
            self._target = arena.random_point(self._rng)
            self._speed = self._rng.uniform(self._min_speed, self._max_speed)
        remaining = position.distance_to(self._target)
        if remaining <= self._speed:
            arrived = self._target
            self._target = None
            self._pause_left = self._pause
            return arrived
        fraction = self._speed / remaining
        return Point(
            position.x + (self._target.x - position.x) * fraction,
            position.y + (self._target.y - position.y) * fraction,
        )
