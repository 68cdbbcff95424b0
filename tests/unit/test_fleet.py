"""Unit tests for the node fleet and the memoised MANET blueprints.

A topology's :class:`~repro.net.topology.Fleet` owns every node's
position, velocity and battery level and derives the ranges; a
:class:`~repro.net.generator.ManetBlueprint` holds one generated MANET's
draws, drawn once per ``(config, seed)`` and copied into a new topology
for every run.  These tests pin the fleet's ranges to the radio model's
own arithmetic, check that copies of one blueprint never share state,
compare a copy with a reference MANET built node by node from the same
seeded draws, and check that a copy builds a node object only when a
caller reads it.
"""

import dataclasses

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.experiments.config import PAPER
from repro.net import generator as generator_module
from repro.net.battery import Battery, LinearDrain
from repro.net.generator import (
    BATTERY_RANGE_FLOOR_FRACTION,
    GATEWAY_RANGE_MULTIPLIER,
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
from repro.routing.world import RoutingWorld, RoutingWorldConfig

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
            radio = HeterogeneousRange(base_scale * factor * GATEWAY_RANGE_MULTIPLIER)
            nodes.append(Node(node_id, position, radio, is_gateway=True))
        elif node_id < static_until:
            nodes.append(Node(node_id, position, HeterogeneousRange(base_scale * factor)))
        else:
            battery = Battery(LinearDrain(config.battery_drain_per_step))
            base = base_scale * factor
            radio = BatteryCoupledRange(
                base, battery, floor=base * BATTERY_RANGE_FLOOR_FRACTION
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


def built_ids(topology):
    return [node.node_id for node in topology.nodes.built()]


class TestOnDemandNodes:
    """A blueprint copy builds a node object only when a caller reads it."""

    def test_a_routing_run_builds_only_the_reflected_nodes(self):
        config = dataclasses.replace(MANET_PRESET, arena_width=400.0, arena_height=300.0)
        blueprint = manet_blueprint(config, 7)
        world_config = RoutingWorldConfig(
            population=20, total_steps=15, converged_after=0, check_invariants=False
        )
        routed = blueprint.topology()
        RoutingWorld(routed, world_config, 11).run()
        stepped = blueprint.topology()
        for __ in range(15):
            stepped.advance()
        # Motion does not depend on the agents, so the same nodes reflect.
        assert 0 < len(built_ids(routed)) < config.node_count // 4
        assert built_ids(routed) == built_ids(stepped)
        assert state(routed) == state(stepped)

    def test_gateway_and_motion_reads_build_no_node(self):
        topology = manet_blueprint(SMALL, 2).topology()
        topology.set_node_down(1)
        assert topology.gateway_ids == [0, 2, 3]
        assert topology.all_gateway_ids == [0, 1, 2, 3]
        x, y, r = topology.motion_state()
        assert x.size == y.size == r.size == SMALL.node_count
        topology.invalidate()
        topology.recompute()
        assert built_ids(topology) == []
        assert [n.node_id for n in topology.nodes if n.is_gateway] == [0, 1, 2, 3]

    def test_a_degrade_without_invalidate_is_flagged_in_the_same_call(self):
        topology = manet_blueprint(SMALL, 2).topology()
        static = range(SMALL.gateway_count, generator_module._mobile_from(SMALL))
        node = next(u for u, __ in topology.edges() if u in static)
        assert built_ids(topology) == []
        topology.node(node).radio.degrade(0.99)
        problems = topology.consistency_problems()
        assert problems and all(f"edge {node}->" in problem for problem in problems)
        topology.invalidate()
        assert topology.consistency_problems() == []


class _Dial:
    """A radio class the fleet does not know: its range is whatever it is set to."""

    def __init__(self, value):
        self.value = value

    def current_range(self):
        return self.value


class TestRangeColumn:
    """The fleet owns the stock radios' ranges; the oracle re-derives what it derives."""

    @pytest.mark.parametrize("change", ["shock", "degrade"])
    def test_a_change_without_invalidate_is_flagged_by_the_next_check(self, change):
        topology = legacy_manet(SMALL, 5)  # nodes given as objects: Fleet.of_nodes
        mobile_from = generator_module._mobile_from(SMALL)
        if change == "shock":
            movers = range(mobile_from, SMALL.node_count)
            node = next(u for u, __ in topology.edges() if u in movers)
            assert node in topology.fleet.coupled.tolist()
            topology.node(node).battery.shock(1.0)  # range falls to its floor
        else:
            static = range(SMALL.gateway_count, mobile_from)
            node = next(u for u, __ in topology.edges() if u in static)
            topology.node(node).radio.degrade(0.99)
        assert topology.fleet.volatile == []
        problems = topology.consistency_problems()
        assert problems and all(f"edge {node}->" in problem for problem in problems)
        topology.invalidate()
        assert topology.consistency_problems() == []
        assert topology.motion_state()[2][node] == topology.node(node).current_range()

    def test_a_foreign_radio_is_read_by_the_refresh_and_the_oracle(self):
        # A test double, and a coupled radio on another node's battery.
        battery = Battery(LinearDrain(0.0))
        nodes = [
            Node(0, Point(0.0, 0.0), _Dial(1.0)),
            Node(1, Point(5.0, 0.0), HeterogeneousRange(6.0), battery=battery),
            Node(2, Point(10.0, 0.0), BatteryCoupledRange(6.0, battery)),
        ]
        topology = Topology(nodes, Arena(20, 20))
        assert topology.fleet.volatile == [0, 2]
        assert topology.fleet.coupled.tolist() == []
        assert not topology.has_edge(0, 1) and topology.has_edge(2, 1)
        nodes[0].radio.value = 7.0
        battery.shock(0.75)  # node 2's range: 6 * 0.25 ** 0.5 = 3
        problems = topology.consistency_problems()
        assert "packed edge array missing edge 0->1" in problems
        assert "packed edge array has phantom edge 2->1" in problems
        topology.advance()  # no invalidate: the refresh re-reads both
        assert topology.consistency_problems() == []
        assert topology.has_edge(0, 1) and not topology.has_edge(2, 1)
        assert topology.motion_state()[2].tolist() == [7.0, 6.0, 3.0]

    def test_bound_radio_parameters_live_in_the_columns(self):
        topology = legacy_manet(SMALL, 6)
        fleet = topology.fleet
        mobile = generator_module._mobile_from(SMALL)
        hetero, coupled = topology.node(mobile - 1).radio, topology.node(mobile).radio
        hetero.base *= 2.0
        coupled.base *= 2.0
        assert fleet.base[mobile - 1] == hetero.base and fleet.base[mobile] == coupled.base
        assert fleet.r[mobile - 1] == hetero.current_range() == hetero.base
        assert (coupled.floor, coupled.exponent) == (fleet.floor[mobile], fleet.exponent[mobile])
        topology.invalidate()
        assert fleet.r[mobile] == max(coupled.floor, coupled.base * coupled.battery.level**0.5)
        assert topology.consistency_problems() == []

    def test_a_radio_serves_one_node(self):
        radio = HeterogeneousRange(5.0)
        nodes = [Node(0, Point(1.0, 1.0), radio), Node(1, Point(2.0, 1.0), radio)]
        with pytest.raises(TopologyError, match="radio"):
            Topology(nodes, Arena(10, 10))
