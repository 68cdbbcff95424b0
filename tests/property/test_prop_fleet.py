"""Property tests: one fleet step equals every node's own scalar step,
and a blueprint copy's on-demand nodes change nothing.

:meth:`repro.net.topology.Fleet.step` advances a whole topology as array
operations.  Its contract is bit-identity with :meth:`Node.advance` run
node by node.  Each example builds one mixed fleet twice from the same
seeds: once bound by a :class:`Topology`, once as detached twin nodes
that keep their own state.  Both are stepped with battery shocks and
radio degrades in between, and every position, velocity, battery level
and range is compared with ``==`` after every step.

A :class:`~repro.net.generator.ManetBlueprint` copy builds a node only
when it is read.  The second test steps two copies of one blueprint, one
with every node built up front, through the same shocks, degrades and
crashes while building random nodes of the other at random steps, and
compares the fleets, the edges and the nodes bit for bit.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.battery import Battery, ExponentialDrain, LinearDrain, NoDrain
from repro.net.generator import GeneratorConfig, NetworkGenerator
from repro.net.geometry import Arena, Point
from repro.net.mobility import RandomVelocity, RandomWaypoint, Stationary
from repro.net.node import Node
from repro.net.radio import BatteryCoupledRange, FixedRange, HeterogeneousRange
from repro.net.topology import Topology

ARENA = Arena(120.0, 80.0)

node_specs = st.fixed_dictionaries(
    {
        "x": st.floats(0.0, ARENA.width),
        "y": st.floats(0.0, ARENA.height),
        "level": st.floats(0.0, 1.0),
        # "fast" covers several reflections per axis in one step.
        "mobility": st.sampled_from(["still", "slow", "fast", "waypoint"]),
        "drain": st.sampled_from(["none", "linear", "exp"]),
        "drain_param": st.floats(0.0, 0.2),
        "radio": st.sampled_from(["fixed", "hetero", "coupled"]),
        "base": st.floats(1.0, 60.0),
        "exponent": st.sampled_from([0.5, 1.0, 2.0, 0.3]),
        "floor": st.floats(0.0, 0.5),
        "seed": st.integers(0, 2**32),
    }
)


def build(node_id, spec):
    """One node from ``spec``; equal specs give equal, independent nodes."""
    drain = {
        "none": NoDrain(),
        "linear": LinearDrain(spec["drain_param"]),
        "exp": ExponentialDrain(spec["drain_param"]),
    }[spec["drain"]]
    battery = Battery(drain, level=spec["level"])
    rng = random.Random(spec["seed"])
    mobility = {
        "still": lambda: Stationary(),
        "slow": lambda: RandomVelocity(rng, 0.0, 10.0),
        "fast": lambda: RandomVelocity(rng, 200.0, 500.0),
        "waypoint": lambda: RandomWaypoint(rng, 1.0, 30.0, pause=rng.randrange(3)),
    }[spec["mobility"]]()
    base = spec["base"]
    radio = {
        "fixed": lambda: FixedRange(base),
        "hetero": lambda: HeterogeneousRange(base),
        "coupled": lambda: BatteryCoupledRange(
            base, battery, exponent=spec["exponent"], floor=spec["floor"] * base
        ),
    }[spec["radio"]]()
    position = Point(spec["x"], spec["y"])
    return Node(node_id, position, radio, battery=battery, mobility=mobility)


def assert_same_state(topology, twins):
    x, y, r = topology.motion_state()
    for node, twin in zip(topology.nodes, twins):
        i = node.node_id
        assert node.position == twin.position
        assert (x[i], y[i]) == (twin.position.x, twin.position.y)
        assert node.battery.level == twin.battery.level
        assert r[i] == twin.current_range() == node.current_range()
        if isinstance(twin.mobility, RandomVelocity):
            assert node.mobility.velocity == twin.mobility.velocity
            assert (topology.fleet.vx[i], topology.fleet.vy[i]) == (
                twin.mobility.velocity.x,
                twin.mobility.velocity.y,
            )


@given(
    st.lists(node_specs, min_size=1, max_size=12),
    st.integers(0, 2**32),
)
@settings(max_examples=60, deadline=None)
def test_fleet_step_equals_per_node_advance(specs, events_seed):
    topology = Topology([build(i, spec) for i, spec in enumerate(specs)], ARENA)
    twins = [build(i, spec) for i, spec in enumerate(specs)]
    events = random.Random(events_seed)
    assert_same_state(topology, twins)
    for __ in range(25):
        topology.advance()
        for twin in twins:
            twin.advance(ARENA)
        assert_same_state(topology, twins)
        for i in range(len(specs)):
            roll = events.random()
            if roll < 0.1:
                amount = events.uniform(0.01, 1.0)
                topology.node(i).battery.shock(amount)
                twins[i].battery.shock(amount)
            elif roll < 0.2 and isinstance(twins[i].radio, HeterogeneousRange):
                fraction = events.choice([0.0, 0.3, 0.9])
                topology.node(i).radio.degrade(fraction)
                twins[i].radio.degrade(fraction)
        topology.invalidate()
        assert_same_state(topology, twins)


# ----------------------------------------------------------------------
# A blueprint copy builds its nodes on demand; building them changes nothing
# ----------------------------------------------------------------------

FLEET_COLUMNS = ("x", "y", "vx", "vy", "level", "r", "gateway", "base", "floor", "exponent")


def assert_same_copies(lazy, eager):
    """Fleet columns and edges equal bit for bit; built nodes agree too."""
    for name in FLEET_COLUMNS:
        assert getattr(lazy.fleet, name).tobytes() == getattr(eager.fleet, name).tobytes(), name
    assert lazy.packed_edges().tobytes() == eager.packed_edges().tobytes()
    for node in lazy.nodes.built():
        assert_same_node(node, eager.nodes[node.node_id])


def assert_same_node(node, other):
    assert node.position == other.position
    assert node.battery.level == other.battery.level
    assert node.current_range() == other.current_range()
    assert node.is_gateway == other.is_gateway
    if isinstance(other.mobility, RandomVelocity):
        assert node.mobility.velocity == other.mobility.velocity
        assert node.mobility.speed == other.mobility.speed


@given(
    st.integers(8, 40),
    st.integers(0, 2**32),
    st.integers(0, 2**32),
    st.sampled_from([0.0, 0.5, 1.0]),
)
@settings(max_examples=40, deadline=None)
def test_lazy_copy_equals_a_fully_built_copy(node_count, network_seed, events_seed, mobile):
    config = GeneratorConfig(
        node_count=node_count,
        arena_width=150.0,
        arena_height=100.0,
        target_edges=None,
        range_heterogeneity=0.25,
        require_strong_connectivity=False,
        gateway_count=2,
        mobile_fraction=mobile,
        min_speed=2.0,
        max_speed=60.0,
        battery_drain_per_step=0.03,
    )
    blueprint = NetworkGenerator(config, network_seed).draw_manet()
    lazy = blueprint.topology()
    eager = blueprint.topology()
    list(eager.nodes)
    assert lazy.nodes.built() == []
    events = random.Random(events_seed)
    assert_same_copies(lazy, eager)
    for __ in range(events.randrange(5, 20)):
        lazy.advance()
        eager.advance()
        for __ in range(events.randrange(3)):
            lazy.node(events.randrange(node_count))
        i = events.randrange(node_count)
        roll = events.random()
        if roll < 0.2:
            amount = events.uniform(0.01, 1.0)
            lazy.node(i).battery.shock(amount)
            eager.node(i).battery.shock(amount)
            lazy.invalidate()
            eager.invalidate()
        elif roll < 0.4 and isinstance(eager.node(i).radio, HeterogeneousRange):
            fraction = events.choice([0.0, 0.3, 0.9])
            lazy.node(i).radio.degrade(fraction)
            eager.node(i).radio.degrade(fraction)
            lazy.invalidate()
            eager.invalidate()
        elif roll < 0.5:
            assert lazy.set_node_down(i) == eager.set_node_down(i)
        elif roll < 0.6 and lazy.down_ids:
            up = events.choice(sorted(lazy.down_ids))
            assert lazy.set_node_up(up) and eager.set_node_up(up)
        assert_same_copies(lazy, eager)
    for node, other in zip(lazy.nodes, eager.nodes):
        assert_same_node(node, other)
    assert_same_copies(lazy, eager)
    assert lazy.consistency_problems() == eager.consistency_problems() == []
