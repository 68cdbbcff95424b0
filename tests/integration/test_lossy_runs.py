"""Integration: lossy-channel runs are deterministic and degrade gracefully.

The acceptance bars from the channel subsystem's design:

* ``loss=0`` is a true no-op — bit-identical to a run with no channel
  configured at all, so every pre-existing seeded experiment is safe,
* the same seed and loss config produce identical results serially and
  across pool workers, and compose deterministically with a fault plan,
* higher loss cannot *help*: connectivity under heavy loss stays at or
  below the lossless baseline,
* a respawned agent restarts its retry/backoff state but keeps its
  whole-run overhead meter.
"""

import pytest

from repro.core.migration import MigrationState
from repro.experiments.runner import (
    RunDefaults,
    clear_topology_cache,
    defaults_scope,
    run_mapping_variants,
    run_routing_variants,
)
from repro.faults.plan import FaultPlan
from repro.mapping.world import MappingWorld, MappingWorldConfig, run_mapping
from repro.net.channel import ChannelConfig
from repro.net.generator import GeneratorConfig, NetworkGenerator
from repro.routing.world import RoutingWorld, RoutingWorldConfig, run_routing

ROUTING_NET = GeneratorConfig(
    node_count=40,
    target_edges=None,
    require_strong_connectivity=False,
    gateway_count=3,
    mobile_fraction=0.5,
)
MAPPING_NET = GeneratorConfig(
    node_count=25, target_edges=None, require_strong_connectivity=True
)


@pytest.fixture(autouse=True)
def fresh_topology_cache():
    clear_topology_cache()
    yield
    clear_topology_cache()


def routing_config(**overrides):
    defaults = dict(population=8, total_steps=50, converged_after=25)
    defaults.update(overrides)
    return RoutingWorldConfig(**defaults)


def mapping_config(**overrides):
    defaults = dict(
        agent_kind="conscientious", population=4, stigmergic=True, max_steps=4000
    )
    defaults.update(overrides)
    return MappingWorldConfig(**defaults)


def routing_fingerprint(result):
    return (result.connectivity, result.meetings, result.overhead)


def mapping_fingerprint(result):
    return (
        result.finishing_time,
        result.steps_simulated,
        result.average_knowledge,
        result.meetings,
        result.overhead,
    )


def make_manet(seed=13):
    return NetworkGenerator(ROUTING_NET, seed=seed).generate_manet()


class TestZeroLossIsANoOp:
    """The satellite regression: channel disabled vs ``loss=0``."""

    def test_routing_bit_identical(self):
        baseline = run_routing(make_manet(), routing_config(channel=None), seed=21)
        zero = run_routing(
            make_manet(), routing_config(channel=ChannelConfig(loss=0.0)), seed=21
        )
        assert routing_fingerprint(baseline) == routing_fingerprint(zero)

    def test_mapping_bit_identical(self):
        topology = NetworkGenerator(MAPPING_NET, seed=31).generate_static()
        baseline = run_mapping(topology, mapping_config(channel=None), seed=8)
        topology = NetworkGenerator(MAPPING_NET, seed=31).generate_static()
        zero = run_mapping(
            topology, mapping_config(channel=ChannelConfig(loss=0.0)), seed=8
        )
        assert mapping_fingerprint(baseline) == mapping_fingerprint(zero)

    def test_zero_loss_draws_nothing(self):
        world = RoutingWorld(
            make_manet(), routing_config(channel=ChannelConfig(loss=0.0)), seed=21
        )
        world.run()
        assert world.channel.stats.attempts > 0
        assert world.channel.stats.losses == 0


class TestLossyRunDeterminism:
    def test_same_seed_same_lossy_run(self):
        config = routing_config(channel=ChannelConfig(loss=0.3))
        first = run_routing(make_manet(), config, seed=5)
        second = run_routing(make_manet(), config, seed=5)
        assert routing_fingerprint(first) == routing_fingerprint(second)

    def test_routing_serial_vs_pool_bit_identical(self):
        variants = {"lossy": routing_config(channel=ChannelConfig(loss=0.25))}
        serial = run_routing_variants(ROUTING_NET, variants, runs=3, master_seed=6)
        pooled = run_routing_variants(
            ROUTING_NET, variants, runs=3, master_seed=6, workers=4
        )
        assert [routing_fingerprint(r) for r in serial["lossy"].results] == [
            routing_fingerprint(r) for r in pooled["lossy"].results
        ]

    def test_mapping_serial_vs_pool_bit_identical(self):
        variants = {
            "lossy": mapping_config(channel=ChannelConfig(loss=0.2, hop_retries=2))
        }
        serial = run_mapping_variants(MAPPING_NET, variants, runs=3, master_seed=7)
        pooled = run_mapping_variants(
            MAPPING_NET, variants, runs=3, master_seed=7, workers=4
        )
        assert [mapping_fingerprint(r) for r in serial["lossy"].results] == [
            mapping_fingerprint(r) for r in pooled["lossy"].results
        ]

    def test_loss_composes_deterministically_with_faults(self):
        plan = (
            FaultPlan(agent_policy="respawn")
            .crash(15, 3)
            .recover(30, 3)
            .loss_burst(20, 5, 0.8)
            .loss_clear(35, 5)
        )
        config = routing_config(
            channel=ChannelConfig(loss=0.2), fault_plan=plan, total_steps=60,
            converged_after=30,
        )
        first = run_routing(make_manet(), config, seed=9)
        second = run_routing(make_manet(), config, seed=9)
        assert routing_fingerprint(first) == routing_fingerprint(second)

    def test_runner_default_channel_applies_to_unset_variants(self):
        variants = {"plain": routing_config()}
        with defaults_scope(RunDefaults(channel=ChannelConfig(loss=0.4))):
            lossy = run_routing_variants(
                ROUTING_NET, variants, runs=2, master_seed=6
            )
        baseline = run_routing_variants(ROUTING_NET, variants, runs=2, master_seed=6)
        assert [r.connectivity for r in lossy["plain"].results] != [
            r.connectivity for r in baseline["plain"].results
        ]


class TestGracefulDegradation:
    def test_heavy_loss_never_beats_lossless(self):
        lossless = run_routing(make_manet(), routing_config(), seed=11)
        heavy = run_routing(
            make_manet(), routing_config(channel=ChannelConfig(loss=0.6)), seed=11
        )
        assert heavy.mean_connectivity <= lossless.mean_connectivity + 1e-9
        assert lossless.mean_connectivity > 0.1

    def test_lossy_hops_are_accounted(self):
        world = RoutingWorld(
            make_manet(), routing_config(channel=ChannelConfig(loss=0.4)), seed=11
        )
        world.run()
        overhead = {}
        for agent in world.agents:
            for key, value in agent.overhead.as_dict().items():
                overhead[key] = overhead.get(key, 0) + value
        assert overhead["hops_lost"] > 0
        assert overhead["hop_retries"] > 0
        assert overhead["hops_attempted"] > overhead["hops_lost"]

    def test_invariants_hold_under_heavy_loss_and_faults(self):
        plan = FaultPlan(agent_policy="respawn").crash(10, 2).loss_burst(12, 4, 0.9)
        world = RoutingWorld(
            make_manet(),
            routing_config(
                channel=ChannelConfig(loss=0.5),
                fault_plan=plan,
                check_invariants=True,
            ),
            seed=14,
        )
        world.run()  # InvariantError would propagate
        assert world.invariants.checks == world.config.total_steps
        assert world.invariants.violations == []


class TestRespawnResetsMigrationState:
    """The satellite audit: death-in-transit must not leak backoff state."""

    def _pending_state(self):
        state = MigrationState()
        state.target = 3
        state.failures = 2
        state.retry_at = 40
        return state

    def test_routing_agent(self):
        world = RoutingWorld(make_manet(), routing_config(), seed=2)
        agent = world.agents[0]
        agent.migration = self._pending_state()
        agent.overhead.hops_lost = 5
        agent.overhead.hop_retries = 4
        agent.reset_for_respawn(start=0, time=20)
        assert agent.migration == MigrationState()
        assert agent.location == 0
        # The overhead meter accounts for the whole run, respawns included.
        assert agent.overhead.hops_lost == 5
        assert agent.overhead.hop_retries == 4

    def test_mapping_agent(self):
        topology = NetworkGenerator(MAPPING_NET, seed=31).generate_static()
        world = MappingWorld(topology, mapping_config(), seed=2)
        agent = world.agents[0]
        agent.migration = self._pending_state()
        agent.overhead.hops_abandoned = 3
        agent.reset_for_respawn(start=0, time=20)
        assert agent.migration == MigrationState()
        assert agent.overhead.hops_abandoned == 3
