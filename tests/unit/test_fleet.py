"""Unit tests for the node fleet and the memoised MANET blueprints.

A topology's :class:`~repro.net.topology.Fleet` owns every node's
position, velocity and battery level and derives the ranges; a
:class:`~repro.net.generator.ManetBlueprint` holds one generated MANET's
draws, drawn once per ``(config, seed)`` and copied into a new topology
for every run.  These tests pin the fleet's ranges to the radio model's
own arithmetic, check that copies of one blueprint never share state,
and compare a copy with a reference MANET built node by node from the
same seeded draws.
"""

import dataclasses

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.experiments.config import PAPER
from repro.net import generator as generator_module
from repro.net.battery import Battery, LinearDrain
from repro.net.generator import (
    MANET_PRESET,
    GeneratorConfig,
    NetworkGenerator,
    clear_blueprint_cache,
    manet_blueprint,
)
from repro.net.geometry import Arena, Point
from repro.net.mobility import RandomVelocity
from repro.net.node import Node
from repro.net.radio import BatteryCoupledRange, HeterogeneousRange
from repro.net.topology import Topology
from repro.rng import derive_seed

#: perfbench's ``manet_arena`` network: the paper's MANET at 5,000 nodes.
ARENA_5K = dataclasses.replace(
    PAPER.routing_generator_config(), node_count=5_000, gateway_count=32
)

SMALL = GeneratorConfig(
    node_count=40,
    target_edges=None,
    range_heterogeneity=0.25,
    require_strong_connectivity=False,
    gateway_count=4,
    mobile_fraction=0.5,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_blueprint_cache()
    yield
    clear_blueprint_cache()


class TestCoupledRanges:
    def test_fleet_range_uses_python_pow(self):
        # At this level numpy's power and sqrt round the last bit the
        # other way from Python's ``**``, which the radio model uses.
        battery = Battery(LinearDrain(1.0 / 1200.0))
        radio = BatteryCoupledRange(1.0, battery)
        topology = Topology([Node(0, Point(1.0, 1.0), radio, battery=battery)], Arena(10, 10))
        for __ in range(603):
            topology.advance()
        level = battery.level
        assert level == 0.4974999999999884
        assert float(np.sqrt(level)) == float(np.power(level, 0.5)) == 0.705336798983286
        assert radio.current_range() == level**0.5 == 0.7053367989832859
        assert topology.motion_state()[2][0] == 0.7053367989832859


class TestAdoption:
    def test_a_node_joins_one_topology(self):
        node = Node(0, Point(1.0, 1.0), HeterogeneousRange(5.0))
        Topology([node], Arena(10, 10))
        with pytest.raises(TopologyError):
            Topology([node], Arena(10, 10))

    def test_node_state_reads_and_writes_the_fleet(self):
        battery = Battery(LinearDrain(0.1), level=0.5)
        mobility = RandomVelocity.moving(5.0, 3.0, 4.0)
        node = Node(0, Point(1.0, 2.0), HeterogeneousRange(5.0), battery, mobility)
        topology = Topology([node], Arena(10, 10))
        fleet = topology.fleet
        assert (fleet.x[0], fleet.y[0], fleet.level[0]) == (1.0, 2.0, 0.5)
        assert (fleet.vx[0], fleet.vy[0]) == (3.0, 4.0)
        node.position = Point(8.0, 8.0)
        battery.shock(0.25)
        assert (fleet.x[0], fleet.y[0], fleet.level[0]) == (8.0, 8.0, 0.25)
        topology.advance()  # crosses both walls: reflects through the model
        assert node.position == Point(9.0, 8.0)
        assert mobility.velocity == Point(-3.0, -4.0) == Point(fleet.vx[0], fleet.vy[0])


def legacy_manet(config, seed):
    """The reference: a MANET built node by node from the generator's draws."""
    generator = NetworkGenerator(config, seed)
    spawner = generator._spawner
    arena = Arena(config.arena_width, config.arena_height)
    rng = spawner.stream("manet:placement")
    base_scale = generator._scale_for_mean_degree(arena, 7.0)
    h = config.range_heterogeneity
    mobile_count = min(
        int(round(config.mobile_fraction * config.node_count)),
        config.node_count - config.gateway_count,
    )
    static_until = config.node_count - mobile_count
    nodes = []
    for node_id in range(config.node_count):
        position = arena.random_point(rng)
        factor = rng.uniform(1.0 - h, 1.0 + h)
        if node_id < config.gateway_count:
            radio = HeterogeneousRange(base_scale * factor * config.gateway_range_multiplier)
            nodes.append(Node(node_id, position, radio, is_gateway=True))
        elif node_id < static_until:
            nodes.append(Node(node_id, position, HeterogeneousRange(base_scale * factor)))
        else:
            battery = Battery(LinearDrain(config.battery_drain_per_step))
            base = base_scale * factor
            radio = BatteryCoupledRange(
                base, battery, floor=base * config.battery_range_floor_fraction
            )
            mobility = RandomVelocity(
                spawner.stream(f"manet:mobility:{node_id}"), config.min_speed, config.max_speed
            )
            nodes.append(Node(node_id, position, radio, battery=battery, mobility=mobility))
    topology = Topology(nodes, arena)
    topology.recompute()
    return topology


def state(topology):
    """Everything a copy must reproduce, as comparable values."""
    x, y, r = topology.motion_state()
    fleet = topology.fleet
    return {
        "positions": [node.position for node in topology.nodes],
        "columns": (x.tolist(), y.tolist(), fleet.vx.tolist(), fleet.vy.tolist()),
        "velocities": [
            node.mobility.velocity
            for node in topology.nodes
            if isinstance(node.mobility, RandomVelocity)
        ],
        "levels": [node.battery.level for node in topology.nodes],
        "level_column": fleet.level.tolist(),
        "ranges": [node.current_range() for node in topology.nodes],
        "range_column": r.tolist(),
        "gateways": topology.gateway_ids,
        "edges": topology.packed_edges().tolist(),
    }


class TestBlueprintCopies:
    @pytest.mark.parametrize(
        "config, master_seed",
        [(MANET_PRESET, 2010), (MANET_PRESET, 99), (ARENA_5K, 2010), (ARENA_5K, 99)],
        ids=["manet250-2010", "manet250-99", "arena5k-2010", "arena5k-99"],
    )
    def test_copy_equals_a_cold_generation(self, config, master_seed):
        seed = derive_seed(master_seed, "routing-net")
        copy = manet_blueprint(config, seed).topology()
        cold = legacy_manet(config, seed)
        assert state(copy) == state(cold)
        assert copy.consistency_problems() == []
        for __ in range(3):
            copy.advance()
            cold.advance()
        assert state(copy) == state(cold)

    def test_generate_manet_is_a_cold_copy(self):
        assert state(NetworkGenerator(SMALL, 5).generate_manet()) == state(legacy_manet(SMALL, 5))
        assert not generator_module._blueprints

    def test_memo_returns_one_blueprint_and_stays_bounded(self):
        first = manet_blueprint(SMALL, 1)
        assert manet_blueprint(SMALL, 1) is first
        limit = generator_module._blueprints.limit
        for seed in range(2, limit + 3):
            manet_blueprint(SMALL, seed)
        assert len(generator_module._blueprints) == limit
        assert manet_blueprint(SMALL, 1) is not first

    def test_blueprint_arrays_are_read_only(self):
        blueprint = manet_blueprint(SMALL, 3)
        for field in dataclasses.fields(blueprint):
            value = getattr(blueprint, field.name)
            if isinstance(value, np.ndarray):
                assert not value.flags.writeable, field.name
                with pytest.raises(ValueError):
                    value[:1] = 0

    def test_copies_are_independent(self):
        blueprint = manet_blueprint(SMALL, 4)
        pristine = state(blueprint.topology())
        a = blueprint.topology()
        b = blueprint.topology()
        mobile = next(n.node_id for n in a.nodes if isinstance(n.mobility, RandomVelocity))
        static = next(
            n.node_id for n in a.nodes if isinstance(n.radio, HeterogeneousRange) and not n.is_gateway
        )
        for __ in range(5):
            a.advance()
        a.node(mobile).battery.shock(0.5)
        a.node(static).radio.degrade(0.5)
        a.invalidate()
        a.set_node_down(static)
        u, v = next(a.edges())
        a.block_edge(u, v)
        assert a.consistency_problems() == []
        assert state(b) == pristine
        assert state(blueprint.topology()) == pristine
        assert manet_blueprint(SMALL, 4) is blueprint
        # ... and the other way round: stepping b leaves a where it was.
        moved = state(a)
        b.advance()
        assert state(a) == moved
        assert state(b) != pristine
