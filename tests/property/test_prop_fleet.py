"""Property test: one fleet step equals every node's own scalar step.

:meth:`repro.net.topology.Fleet.step` advances a whole topology as array
operations.  Its contract is bit-identity with :meth:`Node.advance` run
node by node.  Each example builds one mixed fleet twice from the same
seeds: once adopted by a :class:`Topology`, once as detached twin nodes
that keep their own state.  Both are stepped with battery shocks and
radio degrades in between, and every position, velocity, battery level
and range is compared with ``==`` after every step.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.battery import Battery, ExponentialDrain, LinearDrain, NoDrain
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
