"""Random geometric network generators with paper-scale presets.

The paper evaluates mapping on "a single connected network consisting of
300 nodes with 2164 edges" and routing on a 250-node MANET with 12
gateways, half the nodes mobile.  The exact layouts are unpublished, so
these generators sample seeded random geometric networks matched on node
count, edge count (±tolerance) and gateway count; every experiment then
averages over 40 seeds exactly as the paper averages over 40 runs.

The mapping generator binary-searches a global range scale until the
directed edge count hits the target, then keeps resampling placements
until the result is strongly connected (a requirement for "perfect
knowledge" to be attainable by agents walking out-edges).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from repro.errors import ConfigurationError, GenerationError
from repro.net.battery import Battery, LinearDrain, NoDrain
from repro.net.geometry import Arena, Point
from repro.net.mobility import RandomVelocity, Stationary
from repro.net.node import Node
from repro.net.radio import BatteryCoupledRange, HeterogeneousRange
from repro.net.topology import Fleet, LinkMemo, NodeSequence, Topology, link_edges
from repro.rng import SeedSpawner

__all__ = [
    "GeneratorConfig",
    "NetworkGenerator",
    "ManetBlueprint",
    "MAPPING_PRESET",
    "MANET_PRESET",
    "generate_mapping_network",
    "generate_manet_network",
    "LruCache",
    "manet_blueprint",
    "clear_blueprint_cache",
]


#: static layouts drawn before the closest one to the edge target wins.
MAX_ATTEMPTS = 40

#: MANET gateways' radio range relative to an ordinary node's.
GATEWAY_RANGE_MULTIPLIER = 1.6

#: a mobile node's range on an empty battery, as a fraction of its full range.
BATTERY_RANGE_FLOOR_FRACTION = 0.35


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters for one generated network.

    ``range_heterogeneity`` is the paper's asymmetric-radio knob: each
    node's base range is ``scale * U(1 - h, 1 + h)``; ``h = 0`` recovers
    Minar's symmetric environment.  ``degraded_fraction`` marks that
    fraction of nodes as battery-degraded (their range multiplied by
    ``1 - degradation_amount``) — the mapping world can apply this at
    generation time or mid-run via a scheduled event.
    """

    node_count: int = 300
    arena_width: float = 1000.0
    arena_height: float = 1000.0
    target_edges: Optional[int] = 2164
    edge_tolerance: int = 60
    range_heterogeneity: float = 0.3
    require_strong_connectivity: bool = True
    # --- MANET-only knobs -------------------------------------------
    gateway_count: int = 0
    mobile_fraction: float = 0.0
    min_speed: float = 2.0
    max_speed: float = 12.0
    battery_drain_per_step: float = 1.0 / 1200.0
    degraded_fraction: float = 0.0
    degradation_amount: float = 0.3

    def __post_init__(self) -> None:
        if self.node_count < 2:
            raise ConfigurationError(f"need >= 2 nodes, got {self.node_count}")
        if not 0.0 <= self.range_heterogeneity < 1.0:
            raise ConfigurationError(
                f"range_heterogeneity must be in [0, 1), got {self.range_heterogeneity}"
            )
        if not 0.0 <= self.mobile_fraction <= 1.0:
            raise ConfigurationError(
                f"mobile_fraction must be in [0, 1], got {self.mobile_fraction}"
            )
        if self.gateway_count < 0 or self.gateway_count >= self.node_count:
            raise ConfigurationError(
                f"gateway_count must be in [0, node_count), got {self.gateway_count}"
            )
        if not 0.0 <= self.degraded_fraction <= 1.0:
            raise ConfigurationError(
                f"degraded_fraction must be in [0, 1], got {self.degraded_fraction}"
            )
        if not 0.0 <= self.degradation_amount < 1.0:
            raise ConfigurationError(
                f"degradation_amount must be in [0, 1), got {self.degradation_amount}"
            )


#: Paper §II-B: mapping network of 300 nodes and 2164 directed edges.
MAPPING_PRESET = GeneratorConfig()

#: Paper §III: 250-node MANET, 12 gateways, half the nodes mobile.
MANET_PRESET = GeneratorConfig(
    node_count=250,
    target_edges=None,
    range_heterogeneity=0.25,
    require_strong_connectivity=False,
    gateway_count=12,
    mobile_fraction=0.5,
)

#: Distance cells one ``_count_edges`` block holds (bounds its memory).
_COUNT_BLOCK_CELLS = 1 << 14


class NetworkGenerator:
    """Builds seeded :class:`~repro.net.topology.Topology` instances."""

    def __init__(self, config: GeneratorConfig, seed: int) -> None:
        self.config = config
        self._spawner = SeedSpawner(seed).child("netgen")

    # ------------------------------------------------------------------
    # Static mapping networks
    # ------------------------------------------------------------------

    def generate_static(self) -> Topology:
        """A static network matching ``target_edges`` (if set).

        Each attempt places nodes, fits the global range scale to the edge
        target, then — because the target density sits near the geometric
        connectivity threshold — *repairs* strong connectivity by boosting
        the radio ranges of nodes stranded outside the giant component.
        Among repaired attempts the one whose edge count lands closest to
        the target wins; raises :class:`GenerationError` only when no
        attempt could be made strongly connected at all.
        """
        config = self.config
        arena = Arena(config.arena_width, config.arena_height)
        best: Optional[Topology] = None
        best_error = float("inf")
        for attempt in range(MAX_ATTEMPTS):
            rng = self._spawner.stream(f"placement:{attempt}")
            positions = [arena.random_point(rng) for __ in range(config.node_count)]
            h = config.range_heterogeneity
            factors = [rng.uniform(1.0 - h, 1.0 + h) for __ in range(config.node_count)]
            scale = self._fit_scale(arena, positions, factors)
            topology = self._build_static(arena, positions, factors, scale, rng)
            if config.require_strong_connectivity:
                if not _repair_strong_connectivity(topology):
                    continue
            if config.target_edges is None:
                return topology
            error = abs(topology.edge_count - config.target_edges)
            if error <= config.edge_tolerance:
                return topology
            if error < best_error:
                best, best_error = topology, error
        if best is not None:
            # No attempt hit the tolerance exactly after repair; the
            # closest strongly-connected network is still a faithful
            # stand-in for the paper's unpublished layout.
            return best
        raise GenerationError(
            f"could not generate a satisfying network in {MAX_ATTEMPTS} attempts "
            f"(nodes={config.node_count}, target_edges={config.target_edges})"
        )

    def _fit_scale(
        self, arena: Arena, positions: List[Point], factors: List[float]
    ) -> float:
        """Binary-search the global range scale hitting ``target_edges``."""
        config = self.config
        if config.target_edges is None:
            # Without an edge target use a density heuristic: mean degree 7.
            return self._scale_for_mean_degree(arena, 7.0)
        low, high = 0.0, arena.diagonal()
        for __ in range(48):
            mid = (low + high) / 2.0
            edges = self._count_edges(positions, factors, mid)
            if edges < config.target_edges:
                low = mid
            else:
                high = mid
            if abs(edges - config.target_edges) <= config.edge_tolerance // 2:
                return mid
        return (low + high) / 2.0

    def _scale_for_mean_degree(self, arena: Arena, mean_degree: float) -> float:
        # E[degree] ~= density * pi * r^2  =>  r = sqrt(k * A / (pi * n)).
        import math

        area = arena.width * arena.height
        return math.sqrt(mean_degree * area / (math.pi * self.config.node_count))

    @staticmethod
    def _count_edges(positions: List[Point], factors: List[float], scale: float) -> int:
        """Directed pairs ``i != j`` with ``j`` inside ``i``'s range ``scale * factor_i``.

        Vectorised over row blocks but bit-identical to the pairwise
        ``Point.distance_squared_to`` walk: each ``radius_sq`` is squared
        by Python and compared with ``dx*dx + dy*dy`` in float64.
        """
        node_count = len(positions)
        xs = np.array([position.x for position in positions], dtype=np.float64)
        ys = np.array([position.y for position in positions], dtype=np.float64)
        radius_sq = np.array([(scale * factor) ** 2 for factor in factors])
        count = 0
        block = max(1, _COUNT_BLOCK_CELLS // max(1, node_count))
        for start in range(0, node_count, block):
            stop = min(node_count, start + block)
            dx = xs[start:stop, None] - xs[None, :]
            dy = ys[start:stop, None] - ys[None, :]
            within = dx * dx + dy * dy <= radius_sq[start:stop, None]
            rows = np.arange(stop - start)
            within[rows, rows + start] = False
            count += int(np.count_nonzero(within))
        return count

    def _build_static(
        self,
        arena: Arena,
        positions: List[Point],
        factors: List[float],
        scale: float,
        rng,
    ) -> Topology:
        config = self.config
        degraded = set()
        if config.degraded_fraction > 0.0:
            k = int(round(config.degraded_fraction * config.node_count))
            degraded = set(rng.sample(range(config.node_count), k))
        nodes = []
        for node_id, (position, factor) in enumerate(zip(positions, factors)):
            radio = HeterogeneousRange(scale * factor)
            if node_id in degraded:
                radio.degrade(config.degradation_amount)
            nodes.append(Node(node_id, position, radio))
        topology = Topology(nodes, arena)
        topology.recompute()
        return topology

    # ------------------------------------------------------------------
    # Dynamic MANET networks
    # ------------------------------------------------------------------

    def draw_manet(self) -> "ManetBlueprint":
        """A MANET's draws: gateways + static nodes + battery-powered mobile nodes."""
        config = self.config
        arena = Arena(config.arena_width, config.arena_height)
        rng = self._spawner.stream("manet:placement")
        base_scale = self._scale_for_mean_degree(arena, 7.0)
        h = config.range_heterogeneity
        # Ids: gateways first, then static nodes, then mobile nodes.  The
        # fixed layout keeps runs comparable across parameter settings, as
        # the paper fixes "the same configuration and movement path".
        mobile_from = _mobile_from(config)
        rows = []
        for node_id in range(config.node_count):
            # ``arena.random_point(rng)``'s two draws, x first.
            x = rng.uniform(0.0, arena.width)
            y = rng.uniform(0.0, arena.height)
            base = base_scale * rng.uniform(1.0 - h, 1.0 + h)
            speed = vx = vy = 0.0
            if node_id < config.gateway_count:
                base *= GATEWAY_RANGE_MULTIPLIER
            elif node_id >= mobile_from:
                model = RandomVelocity(
                    self._spawner.stream(f"manet:mobility:{node_id}"),
                    config.min_speed,
                    config.max_speed,
                )
                velocity = model.velocity
                speed, vx, vy = model.speed, velocity.x, velocity.y
            rows.append((x, y, base, speed, vx, vy))
        columns = np.array(rows, dtype=np.float64)
        columns.flags.writeable = False
        floor, reach = _full_ranges(config, columns[:, 2])
        ids = np.arange(config.node_count)
        edges = link_edges(columns[:, 0], columns[:, 1], reach, ids, ids)
        edges.flags.writeable = False
        return ManetBlueprint(config, columns, edges)

    def generate_manet(self) -> Topology:
        """A freshly drawn MANET (:meth:`draw_manet`), never a cached one."""
        return self.draw_manet().topology()


def _mobile_from(config: GeneratorConfig) -> int:
    """The first mobile node id of a MANET drawn from ``config``."""
    mobile = int(round(config.mobile_fraction * config.node_count))
    return config.node_count - min(mobile, config.node_count - config.gateway_count)


#: the exponent of a MANET's battery-coupled radios: range ~ sqrt(level).
_EXPONENT = 0.5


def _full_ranges(config: GeneratorConfig, base):
    """``(floor, range)`` of every node of a MANET on full batteries.

    Mobile nodes' coupled radios have ``floor = base * fraction`` and the
    range ``max(floor, base * 1.0 ** e)``; other nodes have floor 0 and
    their base range.
    """
    mobile = slice(_mobile_from(config), config.node_count)
    floor = np.zeros(config.node_count)
    floor[mobile] = base[mobile] * BATTERY_RANGE_FLOOR_FRACTION
    return floor, np.maximum(floor, base)


@dataclass(frozen=True, eq=False)
class ManetBlueprint:
    """Every draw of one generated MANET, as read-only arrays.

    ``columns`` holds one row per node: x, y, the radio's base range and,
    for mobile nodes, speed and velocity (0 elsewhere); ``edges`` holds
    the drawn state's sorted packed adjacency.  :meth:`topology` builds
    an independent network from it, so every run of a sweep starts from
    the same placement and movement paths without drawing them again.
    A kept blueprint (:func:`manet_blueprint`) also holds the ``memo``
    its copies share, so a state of that path has its link set and its
    reference sweep computed once, not once per copy; a drawn one has
    none.
    """

    config: GeneratorConfig
    columns: np.ndarray
    edges: np.ndarray
    memo: Optional[LinkMemo] = None

    def topology(self) -> Topology:
        """A new topology at the drawn state, its adjacency built.

        A few array copies: the fleet is filled from the columns, and a
        node object is built only when a caller asks for it (see
        :class:`~repro.net.topology.NodeSequence`).
        """
        config = self.config
        n = config.node_count
        mobile_from = _mobile_from(config)
        x, y, base, speed, vx, vy = self.columns.T
        floor, reach = _full_ranges(config, base)
        mobile = np.arange(mobile_from, n)
        gateway = np.zeros(n, dtype=bool)
        gateway[: config.gateway_count] = True
        coupled = np.zeros(n, dtype=bool)
        coupled[mobile] = True
        fleet = Fleet(
            x=x.copy(),
            y=y.copy(),
            vx=vx.copy(),
            vy=vy.copy(),
            level=np.ones(n),
            r=reach,
            gateway=gateway,
            base=base.copy(),
            floor=floor,
            exponent=np.where(coupled, _EXPONENT, 0.0),
            coupled=coupled,
            movers=mobile,
            drains=[(True, config.battery_drain_per_step, mobile)] if mobile.size else [],
        )
        # The models without state are shared within the copy.
        still, no_drain = Stationary(), NoDrain()
        drain = LinearDrain(config.battery_drain_per_step)

        def make(i: int) -> Node:
            position = Point(fleet.x.item(i), fleet.y.item(i))
            if i < mobile_from:
                radio = HeterogeneousRange(base.item(i))
                return Node(i, position, radio, Battery(no_drain), still, i < config.gateway_count)
            battery = Battery(drain)
            radio = BatteryCoupledRange(
                base.item(i), battery, exponent=_EXPONENT, floor=floor.item(i)
            )
            mobility = RandomVelocity.moving(speed.item(i), fleet.vx.item(i), fleet.vy.item(i))
            return Node(i, position, radio, battery, mobility)

        nodes = NodeSequence(fleet, [None] * n, make)
        topology = Topology(nodes, Arena(config.arena_width, config.arena_height))
        topology._memo = self.memo
        topology._adopt(self.edges)
        return topology


class LruCache(OrderedDict):
    """At most ``limit`` values, least recently used evicted first.

    :meth:`fetch` is safe across threads, since the cache is process-wide
    and a caller may run sweeps on threads of one process; two threads
    missing the same key both build it.
    """

    def __init__(self, limit: int) -> None:
        super().__init__()
        self.limit = limit
        self._lock = threading.Lock()

    def fetch(self, key, build):
        """The value kept under ``key``, built by ``build()`` on a miss."""
        with self._lock:
            if key in self:
                self.move_to_end(key)
                return self[key]
        value = build()
        with self._lock:
            self[key] = value
            while len(self) > self.limit:
                self.popitem(last=False)
        return value


#: a sweep shares one blueprint, so a small LRU keeps the working set.
#: Each kept blueprint holds one :class:`~repro.net.topology.LinkMemo`,
#: which dies with it, so the LRU also bounds how many memos live: at
#: most 8 x :data:`~repro.net.topology.LINK_MEMO_BYTES`.
_blueprints = LruCache(8)


def manet_blueprint(config: GeneratorConfig, seed: int) -> ManetBlueprint:
    """The blueprint of ``(config, seed)``, drawn once and kept (LRU).

    Its copies share one :class:`~repro.net.topology.LinkMemo`.
    """

    def draw() -> ManetBlueprint:
        return replace(NetworkGenerator(config, seed).draw_manet(), memo=LinkMemo())

    return _blueprints.fetch((config, seed), draw)


def clear_blueprint_cache() -> None:
    """Drop every kept MANET blueprint."""
    _blueprints.clear()


def _repair_strong_connectivity(topology: Topology, max_rounds: int = 60) -> bool:
    """Boost stranded nodes' radios until the digraph is strongly connected.

    Each round finds the largest strongly connected component and, for
    every node outside it, enlarges that node's range (creating out-edges
    toward the component) and the range of its nearest component member
    (creating an in-edge back).  Returns whether repair succeeded within
    ``max_rounds``.
    """
    from repro.net.graphutils import strongly_connected_components

    for __ in range(max_rounds):
        adjacency = topology.adjacency_copy()
        components = strongly_connected_components(adjacency)
        if len(components) <= 1:
            return True
        giant = max(components, key=len)
        stranded = [n for n in topology.node_ids if n not in giant]
        # Squared distances to every member, in the set's iteration order:
        # argmin keeps the first nearest member, as min() over the set does.
        members = np.fromiter(giant, np.int64, len(giant))
        x, y, __ = topology.motion_state()
        for node_id in stranded:
            _boost(topology.node(node_id))
            dx = x[node_id] - x[members]
            dy = y[node_id] - y[members]
            nearest = int(members[np.argmin(dx * dx + dy * dy)])
            _boost(topology.node(nearest))
        topology.invalidate()
    return topology.is_strongly_connected()


def _boost(node: Node, factor: float = 1.15) -> None:
    """Enlarge a node's base radio range by ``factor``."""
    radio = node.radio
    if isinstance(radio, (HeterogeneousRange, BatteryCoupledRange)):
        radio.base *= factor


def generate_mapping_network(seed: int, config: Optional[GeneratorConfig] = None) -> Topology:
    """Convenience wrapper: a static mapping network (paper preset default)."""
    return NetworkGenerator(config or MAPPING_PRESET, seed).generate_static()


def generate_manet_network(seed: int, config: Optional[GeneratorConfig] = None) -> Topology:
    """Convenience wrapper: a dynamic MANET (paper preset default)."""
    base = config or MANET_PRESET
    if base.gateway_count == 0:
        base = replace(base, gateway_count=MANET_PRESET.gateway_count)
    return NetworkGenerator(base, seed).generate_manet()
