"""Property tests: sharded-world bit-identity and delta reassembly.

The sharded world's contract is exact equivalence, not approximation:
at any shard count the run must produce the serial world's results,
tables, and per-step topology bit for bit.  These suites pin that
contract over random seeds and shard counts, plus the two merge
operations the coordinator relies on (edge-delta reassembly and
metrics-snapshot merging).
"""

import pytest

np = pytest.importorskip("numpy")

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.channel import ChannelConfig
from repro.net.generator import GeneratorConfig, NetworkGenerator
from repro.obs.metrics import MetricsRegistry, merge_snapshots
from repro.routing.table import TableGuard
from repro.routing.world import RoutingWorld, RoutingWorldConfig
from repro.shard.world import ShardedRoutingWorld

GC = GeneratorConfig(
    node_count=36,
    target_edges=None,
    require_strong_connectivity=False,
    gateway_count=4,
    mobile_fraction=0.5,
)

CFG = RoutingWorldConfig(
    agent_kind="oldest-node",
    population=10,
    visiting=True,
    stigmergic=True,
    route_ttl=40,
    total_steps=12,
    converged_after=6,
    channel=ChannelConfig(loss=0.1, distance_factor=0.3),
    table_guard=TableGuard(),
    check_invariants=False,
    batch_agents=False,
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def table_state(bank, n):
    return [
        (
            sorted(bank.table(node)._entries.items()),
            sorted(bank.table(node)._sequence_floors.items()),
            bank.table(node).guard_rejections,
        )
        for node in range(n)
    ]


def run_serial(network_seed, world_seed, config=CFG):
    topology = NetworkGenerator(GC, network_seed).generate_manet()
    world = RoutingWorld(topology, config, world_seed)
    return world, world.run()


class TestBitIdentity:
    @given(network_seed=seeds, world_seed=seeds, shards=st.sampled_from([1, 2, 4]))
    @settings(max_examples=10, deadline=None)
    def test_sharded_equals_serial(self, network_seed, world_seed, shards):
        serial, expected = run_serial(network_seed, world_seed)
        sharded = ShardedRoutingWorld(
            GC, replace(CFG, shards=shards), network_seed, world_seed
        )
        actual = sharded.run()
        assert actual.times == expected.times
        assert actual.connectivity == expected.connectivity
        assert actual.meetings == expected.meetings
        assert actual.overhead == expected.overhead
        assert actual.guard_rejections == expected.guard_rejections
        assert table_state(sharded.tables, GC.node_count) == table_state(
            serial.tables, GC.node_count
        )
        assert [(a.agent_id, a.location) for a in sharded.agents] == [
            (a.agent_id, a.location) for a in serial.agents
        ]

    @given(network_seed=seeds, world_seed=seeds)
    @settings(max_examples=6, deadline=None)
    def test_single_shard_identity_without_visiting(self, network_seed, world_seed):
        config = replace(CFG, visiting=False, stigmergic=False, shards=1)
        serial_config = replace(config, shards=None)
        topology = NetworkGenerator(GC, network_seed).generate_manet()
        expected = RoutingWorld(topology, serial_config, world_seed).run()
        actual = ShardedRoutingWorld(GC, config, network_seed, world_seed).run()
        assert actual.times == expected.times
        assert actual.connectivity == expected.connectivity
        assert actual.overhead == expected.overhead


class TestDeltaReassembly:
    @given(network_seed=seeds, shards=st.sampled_from([2, 4]))
    @settings(max_examples=8, deadline=None)
    def test_tile_streams_reassemble_the_global_adjacency(
        self, network_seed, shards
    ):
        """The mirror built from tile edge-deltas tracks the real topology
        exactly, step by step."""
        world_seed = 5
        topology = NetworkGenerator(GC, network_seed).generate_manet()
        serial = RoutingWorld(topology, CFG, world_seed)
        serial_steps = []
        serial.engine.hooks.subscribe(
            "connectivity_recorded",
            lambda **kw: serial_steps.append(
                [list(row) for row in serial.topology.adjacency_view()]
            ),
        )
        serial.run()

        sharded = ShardedRoutingWorld(
            GC, replace(CFG, shards=shards), network_seed, world_seed
        )
        sharded_steps = []
        sharded.engine.hooks.subscribe(
            "connectivity_recorded",
            lambda **kw: sharded_steps.append(
                [list(row) for row in sharded._mirror.adjacency_view()]
            ),
        )
        sharded.run()
        assert len(sharded_steps) == len(serial_steps) == CFG.total_steps
        assert sharded_steps == serial_steps


@st.composite
def metric_snapshots(draw):
    """One shard-shaped snapshot: counters, gauges, and a step ring."""
    registry = MetricsRegistry()
    for name in ("routing.meetings", "routing.installs", "channel.losses"):
        amount = draw(st.integers(min_value=0, max_value=50))
        if amount:
            registry.inc(name, amount)
    gauge = draw(st.none() | st.floats(min_value=0.0, max_value=100.0))
    if gauge is not None:
        registry.gauge_set("agents.alive", gauge)
    for time in draw(
        st.lists(st.integers(min_value=1, max_value=20), max_size=6, unique=True)
    ):
        registry.ring_record("connectivity", time, draw(st.floats(0.0, 1.0)))
    return registry.snapshot()


class TestSnapshotMerge:
    @given(st.lists(metric_snapshots(), min_size=1, max_size=5), st.randoms())
    @settings(max_examples=60, deadline=None)
    def test_merge_is_order_independent(self, snapshots, rng):
        """Shard reports merge to the same view in any arrival order."""
        merged = merge_snapshots(snapshots)
        shuffled = list(snapshots)
        rng.shuffle(shuffled)
        assert merge_snapshots(shuffled) == merged

    @given(st.lists(metric_snapshots(), min_size=2, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_merge_is_associative(self, snapshots):
        all_at_once = merge_snapshots(snapshots)
        pairwise = snapshots[0]
        for snapshot in snapshots[1:]:
            pairwise = merge_snapshots([pairwise, snapshot])
        assert merge_snapshots([pairwise]) == all_at_once
