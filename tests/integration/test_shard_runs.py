"""Integration: sharded runs — obs parity, support gate, runner plumbing."""

import pytest

np = pytest.importorskip("numpy")

from dataclasses import replace

from repro.errors import ConfigurationError
from repro.experiments.runner import clear_topology_cache, run_routing_variants
from repro.net.channel import ChannelConfig
from repro.net.generator import GeneratorConfig, NetworkGenerator
from repro.obs.collector import ObsConfig
from repro.routing.world import RoutingWorld, RoutingWorldConfig
from repro.shard.world import ShardedRoutingWorld, run_sharded_routing

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


@pytest.fixture(autouse=True)
def fresh_topology_cache():
    clear_topology_cache()
    yield
    clear_topology_cache()


def run_serial(config):
    topology = NetworkGenerator(GC, NS).generate_manet()
    return RoutingWorld(topology, config, WS).run()


class TestObsParity:
    def test_metrics_snapshots_are_identical(self):
        obs = ObsConfig(metrics=True)
        expected = run_serial(replace(CFG, obs=obs))
        actual = run_sharded_routing(GC, replace(CFG, obs=obs, shards=4), NS, WS)
        assert expected.obs is not None and actual.obs is not None
        assert actual.obs == expected.obs


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


class TestRunnerPlumbing:
    def test_sharded_variant_equals_the_serial_variant(self):
        results = run_routing_variants(
            GC,
            {"serial": CFG, "tiled": replace(CFG, shards=2)},
            runs=2,
            master_seed=11,
            workers=1,
        )
        assert len(results["tiled"].results) == 2
        assert results["tiled"].results == results["serial"].results

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ConfigurationError):
            replace(CFG, shards=0)
