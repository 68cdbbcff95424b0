"""Unit tests for adversarial fault injection and hop backoff clamping.

The injector is world-agnostic, so a minimal stub world — a real
engine, topology, and channel, plus bare-bones agents — is enough to
exercise the gray-failure, flap, and agent-corruption paths without a
full scenario.
"""

import random

import pytest

from repro.errors import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FAULT_KINDS, FaultPlan, parse_fault_plan
from repro.net.channel import ChannelConfig, ChannelModel
from repro.net.manual import fixed_topology
from repro.sim.engine import TimeStepEngine


class _StubAgent:
    def __init__(self, agent_id, location):
        self.agent_id = agent_id
        self.location = location


class _StubWorld:
    def __init__(self, population=3):
        self.topology = fixed_topology(
            4, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)], gateways=(0, 3)
        )
        self.engine = TimeStepEngine()
        self.channel = ChannelModel(self.topology, ChannelConfig(), seed=7)
        self.agents = [_StubAgent(i, i % 4) for i in range(population)]


def install(world, plan):
    injector = FaultInjector(world, plan, random.Random(0))
    injector.install()
    return injector


class TestGrayInjection:
    def test_grayfail_arms_the_channel_at_its_time(self):
        world = _StubWorld()
        install(world, FaultPlan().gray_failure(3, 1, rate=0.9))
        world.engine.run(2)
        assert world.channel.active_grayfails == {}
        world.engine.run(1)
        assert world.channel.active_grayfails == {1: 0.9}

    def test_grayclear_heals(self):
        world = _StubWorld()
        install(
            world,
            FaultPlan().gray_failure(3, 1, rate=0.9).gray_clear(6, 1),
        )
        world.engine.run(6)
        assert world.channel.active_grayfails == {}

    def test_fault_injected_hook_reports_application(self):
        world = _StubWorld()
        fired = []
        world.engine.hooks.subscribe(
            "fault_injected",
            lambda **kw: fired.append((kw["kind"], kw["target"], kw["applied"])),
        )
        install(
            world,
            FaultPlan().gray_failure(3, 1, rate=0.9).gray_clear(4, 2),
        )
        world.engine.run(4)
        # Clearing a node that never gray-failed applies nothing.
        assert fired == [
            ("grayfail", (1,), True),
            ("grayclear", (2,), False),
        ]


class TestCorruptAgentInjection:
    def test_agent_turns_corrupted_at_its_time(self):
        world = _StubWorld()
        injector = install(world, FaultPlan().corrupt_agent(5, 1))
        world.engine.run(4)
        assert not injector.is_corrupted(1)
        world.engine.run(1)
        assert injector.is_corrupted(1)
        assert not injector.is_corrupted(0)

    def test_corrupted_agents_stay_alive_and_active(self):
        world = _StubWorld()
        injector = install(world, FaultPlan().corrupt_agent(5, 1))
        world.engine.run(5)
        assert injector.is_alive(1)
        assert 1 in [a.agent_id for a in injector.active_agents()]

    def test_unknown_agent_id_applies_nothing(self):
        world = _StubWorld(population=2)
        injector = install(world, FaultPlan().corrupt_agent(5, 9))
        world.engine.run(5)
        assert not injector.is_corrupted(9)


#: One spec per fault kind naming a node, edge endpoint or gateway the
#: 4-node, 2-gateway stub network lacks, and the id the error must name.
_MISSING_TARGETS = [
    ("crash@5:4", "node 4"),
    ("recover@5:9", "node 9"),
    ("shock@5:4:0.5", "node 4"),
    ("wipe@5:4", "node 4"),
    ("corrupt@5:4", "node 4"),
    ("lossburst@5:4:0.5", "node 4"),
    ("lossclear@5:999", "node 999"),
    ("grayfail@5:4:0.5", "node 4"),
    ("grayclear@5:999", "node 999"),
    ("blackout@5:1-4", "node 4"),
    ("restore@5:99-100", "node 99"),
    ("flap@5:4:0.5:4:2", "node 4"),
    ("flap@5:0-7:0.5:4:2", "node 7"),
    ("crash@5:gw2", "gateway #2"),
    ("lossclear@5:gw40", "gateway #40"),
    ("flap@5:gw2:0.5:4:2", "gateway #2"),
]


class TestTargetsExist:
    @pytest.mark.parametrize("spec, missing", _MISSING_TARGETS)
    def test_a_missing_target_fails_at_install(self, spec, missing):
        world = _StubWorld()
        with pytest.raises(ConfigurationError, match=missing) as raised:
            install(world, parse_fault_plan(spec))
        assert spec in str(raised.value)  # the error names the event
        assert len(world.engine.events) == 0  # nothing was scheduled

    def test_every_kind_with_a_node_target_is_covered(self):
        kinds = {spec.split("@")[0] for spec, __ in _MISSING_TARGETS}
        assert kinds == FAULT_KINDS - {"kill", "corruptagent"}

    def test_the_last_node_and_gateway_are_accepted(self):
        world = _StubWorld()
        install(world, parse_fault_plan("crash@5:3;restore@6:3-2;recover@7:gw1"))
        world.engine.run(5)
        assert world.topology.down_ids == {3}


class TestFlapInjection:
    def test_node_flaps_down_and_settles_up(self):
        world = _StubWorld()
        plan = FaultPlan(agent_policy="freeze").flap_node(
            5, 2, duty=0.5, period=4, cycles=2
        )
        install(world, plan)
        world.engine.run(5)
        assert 2 in world.topology.down_ids  # cycle 1 down phase
        world.engine.run(2)  # now=7: back up after 2 down steps
        assert 2 not in world.topology.down_ids
        world.engine.run(2)  # now=9: cycle 2 down phase
        assert 2 in world.topology.down_ids
        world.engine.run(20)
        assert 2 not in world.topology.down_ids  # settled up for good

    def test_edge_flap_blocks_the_directed_link(self):
        world = _StubWorld()
        install(
            world,
            FaultPlan().flap_edge(5, 1, 2, duty=0.5, period=4, cycles=1),
        )
        world.engine.run(5)
        assert 2 not in world.topology.out_neighbors(1)
        assert 1 in world.topology.out_neighbors(2)  # reverse untouched
        world.engine.run(20)
        assert 2 in world.topology.out_neighbors(1)


class TestHopBackoffClamp:
    def run_failures(self, failures, *, base=1, cap=64, retries=100):
        """Drive ``failures`` consecutive lost hops; return the state."""
        from repro.core.migration import RETRY, MigrationState, ReliableMigration
        from repro.core.overhead import OverheadMeter

        topology = fixed_topology(2, [(0, 1), (1, 0)])
        channel = ChannelModel(
            topology,
            ChannelConfig(loss=1.0, hop_retries=retries, backoff_base=base,
                          backoff_cap=cap),
            seed=7,
        )
        agent = _StubAgent(0, 0)
        agent.migration = MigrationState()
        agent.overhead = OverheadMeter()
        protocol = ReliableMigration(channel)
        now = 0
        for __ in range(failures):
            now = agent.migration.retry_at
            assert protocol.attempt_hop(agent, 1, now) == RETRY
        return agent.migration, now

    def test_backoff_grows_exponentially_below_the_cap(self):
        state, now = self.run_failures(4, base=1, cap=64)
        # failures=4 -> 1 * 2**3 = 8 steps.
        assert state.retry_at - now == 8

    def test_backoff_clamps_at_cap(self):
        state, now = self.run_failures(10, base=1, cap=16)
        # 2**9 would be 512; the cap holds it at 16.
        assert state.retry_at - now == 16

    def test_huge_failure_counts_do_not_overflow_the_wait(self):
        state, now = self.run_failures(60, base=4, cap=32)
        assert state.retry_at - now == 32


class TestCustodyBackoffClamp:
    def test_register_failure_clamps_at_cap(self):
        from repro.traffic.payload import Payload, PayloadCopy
        from repro.traffic.plane import TrafficConfig
        from repro.traffic.routers import StoreAndForwardRouter

        class _StubPlane:
            config = TrafficConfig(
                backoff_base=1, backoff_cap=8, max_retransmit=99
            )
            counters = {"abandons": 0}

        router = StoreAndForwardRouter(_StubPlane())
        copy = PayloadCopy(Payload(pid=0, source=0, created_at=0, ttl=50))
        for __ in range(20):
            router._register_failure(copy, target=1, now=0)
        assert copy.retry_at == 8
        assert copy.failures == 20
