"""Integration: sharded runs — process mode, obs parity, runner plumbing."""

import pytest

np = pytest.importorskip("numpy")

from dataclasses import replace

from repro.errors import ConfigurationError
from repro.experiments import get_experiment
from repro.experiments.config import Scale
from repro.experiments.runner import (
    RunDefaults,
    clear_topology_cache,
    defaults_scope,
)
from repro.net.channel import ChannelConfig
from repro.net.generator import GeneratorConfig, NetworkGenerator
from repro.obs.collector import ObsConfig
from repro.routing.world import RoutingWorld, RoutingWorldConfig
from repro.shard.world import ShardedRoutingWorld, run_sharded_routing

# Module-level configs: the process-mode test pickles these into spawned
# workers, so they must be importable, not test-local closures.
GC = GeneratorConfig(
    node_count=60,
    target_edges=None,
    require_strong_connectivity=False,
    gateway_count=6,
    mobile_fraction=0.5,
)
CFG = RoutingWorldConfig(
    agent_kind="oldest-node",
    population=16,
    visiting=True,
    stigmergic=True,
    route_ttl=40,
    total_steps=25,
    converged_after=12,
    channel=ChannelConfig(loss=0.05, distance_factor=0.3),
    check_invariants=False,
    batch_agents=False,
)
NS, WS = 4242, 17

TINY = Scale(
    name="tiny",
    runs=2,
    mapping_nodes=25,
    mapping_target_edges=None,
    mapping_max_steps=4_000,
    populations=(1, 4),
    team_population=4,
    routing_nodes=30,
    routing_gateways=3,
    routing_population=8,
    routing_steps=40,
    routing_converged_after=20,
    routing_populations=(4, 10),
    history_sizes=(2, 8),
    default_history=6,
)


@pytest.fixture(autouse=True)
def fresh_topology_cache():
    clear_topology_cache()
    yield
    clear_topology_cache()


def run_serial(config):
    topology = NetworkGenerator(GC, NS).generate_manet()
    return RoutingWorld(topology, config, WS).run()


class TestProcessMode:
    def test_spawned_workers_match_serial(self):
        expected = run_serial(CFG)
        actual = run_sharded_routing(
            GC, replace(CFG, shards=4), NS, WS, processes=True
        )
        assert actual.times == expected.times
        assert actual.connectivity == expected.connectivity
        assert actual.meetings == expected.meetings
        assert actual.overhead == expected.overhead
        assert actual.guard_rejections == expected.guard_rejections


class TestObsParity:
    def test_metrics_snapshots_are_identical(self):
        obs = ObsConfig(metrics=True)
        expected = run_serial(replace(CFG, obs=obs))
        actual = run_sharded_routing(GC, replace(CFG, obs=obs, shards=4), NS, WS)
        assert expected.obs is not None and actual.obs is not None
        assert actual.obs.to_dict() == expected.obs.to_dict()


class TestSupportGate:
    @pytest.mark.parametrize(
        "changes",
        [
            {"batch_agents": True},
            {"check_invariants": True},
            {"agent_kind": "stigmergic"},
            {"obs": ObsConfig(metrics=True, events=True)},
        ],
    )
    def test_out_of_scope_configs_rejected(self, changes):
        with pytest.raises(ConfigurationError):
            ShardedRoutingWorld(
                GC, replace(CFG, shards=2, **changes), NS, WS
            )

    def test_close_is_idempotent(self):
        world = ShardedRoutingWorld(GC, replace(CFG, shards=2), NS, WS)
        world.close()
        world.close()


class TestRunnerPlumbing:
    def test_shard_default_reproduces_the_serial_report(self):
        serial = get_experiment("fig7").run(TINY, master_seed=11).render()
        clear_topology_cache()
        with defaults_scope(RunDefaults(shards=2)):
            sharded = get_experiment("fig7").run(TINY, master_seed=11).render()
        assert sharded == serial

    def test_bad_shard_defaults_rejected(self):
        with pytest.raises(ConfigurationError):
            RunDefaults(shards=0)
        with pytest.raises(ConfigurationError):
            RunDefaults(shards=2, tile_size=-1.0)


class TestCliFlag:
    def test_run_with_shards_flag(self, capsys, monkeypatch):
        import repro.cli as cli_module
        from repro.cli import main

        monkeypatch.setattr(cli_module, "QUICK", TINY)
        assert main(["run", "fig7", "--quiet", "--no-plot", "--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out
