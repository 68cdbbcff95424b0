"""Integration: the DTN data plane rides full runs without disturbing them.

The acceptance bars from ISSUE 6:

* ``traffic=None`` (the default) builds nothing — attaching a workload
  must not perturb the control plane's seeded streams either,
* identical seeds produce identical :class:`TrafficReport`s, serially
  and across pool workers,
* payload conservation (generated == delivered + expired + dropped +
  in-flight + buffered) holds after every step even under fault churn
  and loss bursts — enforced by the invariant checker,
* the mapping world runs the table-less routers (and degrades a
  store-and-forward request to epidemic instead of refusing),
* traffic reports survive the checkpoint-journal round trip.
"""

import pytest

from repro.experiments.runner import (
    RunDefaults,
    clear_topology_cache,
    defaults_scope,
    run_routing_variants,
)
from repro.faults.plan import FaultPlan
from repro.mapping.world import MappingWorldConfig, run_mapping
from repro.net.channel import ChannelConfig
from repro.net.generator import GeneratorConfig, NetworkGenerator
from repro.routing.world import RoutingResult, RoutingWorldConfig, run_routing
from repro.traffic.plane import TrafficConfig

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


def make_manet(seed=13):
    return NetworkGenerator(ROUTING_NET, seed=seed).generate_manet()


def routing_config(**overrides):
    defaults = dict(population=8, total_steps=50, converged_after=25)
    defaults.update(overrides)
    return RoutingWorldConfig(**defaults)


def control_fingerprint(result):
    return (result.connectivity, result.meetings, result.overhead)


def conservation_holds(report):
    return report.generated == (
        report.delivered
        + report.expired
        + report.dropped
        + report.in_flight
        + report.buffered
    )


class TestTrafficIsAnOverlay:
    def test_attaching_traffic_leaves_control_plane_untouched(self):
        baseline = run_routing(make_manet(), routing_config(), seed=21)
        with_traffic = run_routing(
            make_manet(),
            routing_config(traffic=TrafficConfig(rate=1.0)),
            seed=21,
        )
        assert control_fingerprint(baseline) == control_fingerprint(with_traffic)
        assert baseline.traffic is None
        assert with_traffic.traffic is not None
        assert with_traffic.traffic.generated > 0

    def test_same_seed_same_traffic_report(self):
        config = routing_config(
            channel=ChannelConfig(loss=0.3),
            traffic=TrafficConfig(rate=1.0),
        )
        first = run_routing(make_manet(), config, seed=5)
        second = run_routing(make_manet(), config, seed=5)
        assert first.traffic == second.traffic

    def test_serial_vs_pool_identical_traffic_reports(self):
        variants = {
            "dtn": routing_config(
                channel=ChannelConfig(loss=0.25),
                traffic=TrafficConfig(rate=1.0, router="spray-and-wait"),
            )
        }
        serial = run_routing_variants(ROUTING_NET, variants, runs=3, master_seed=6)
        pooled = run_routing_variants(
            ROUTING_NET, variants, runs=3, master_seed=6, workers=4
        )
        assert [r.traffic for r in serial["dtn"].results] == [
            r.traffic for r in pooled["dtn"].results
        ]

    def test_runner_default_traffic_applies_to_unset_variants(self):
        traffic = TrafficConfig(rate=1.0, router="epidemic")
        with defaults_scope(RunDefaults(traffic=traffic)):
            outcome = run_routing_variants(
                ROUTING_NET, {"plain": routing_config()}, runs=2, master_seed=6
            )
        for result in outcome["plain"].results:
            assert result.traffic is not None
            assert result.traffic.router == "epidemic"
            assert conservation_holds(result.traffic)


class TestConservationUnderFaults:
    @pytest.mark.parametrize(
        "router", ["store-and-forward", "epidemic", "spray-and-wait"]
    )
    def test_churn_loss_bursts_and_invariants(self, router):
        plan = (
            FaultPlan(agent_policy="respawn")
            .crash(10, 3)
            .loss_burst(15, 4, 0.9)
            .recover(25, 3)
            .loss_clear(32, 4)
        )
        config = routing_config(
            total_steps=60,
            converged_after=30,
            channel=ChannelConfig(loss=0.3),
            fault_plan=plan,
            traffic=TrafficConfig(rate=1.0, router=router, payload_ttl=40),
            check_invariants=True,
        )
        result = run_routing(make_manet(), config, seed=14)
        report = result.traffic
        assert report.generated > 20
        assert report.delivered > 0
        assert conservation_holds(report)

    def test_crash_strands_copies_but_loses_none(self):
        plan = FaultPlan(agent_policy="respawn").crash(20, 8).recover(40, 8)
        config = routing_config(
            total_steps=70,
            converged_after=35,
            fault_plan=plan,
            traffic=TrafficConfig(rate=2.0, payload_ttl=200),
            check_invariants=True,
        )
        result = run_routing(make_manet(), config, seed=3)
        report = result.traffic
        assert conservation_holds(report)
        # whatever a crash stranded was delayed, never silently destroyed
        assert report.dropped == (
            report.counters["overflow_drops"] + report.counters["source_drops"]
        )


class TestMappingWorldTraffic:
    def _config(self, **traffic_overrides):
        settings = dict(rate=0.5, router="epidemic", payload_ttl=100)
        settings.update(traffic_overrides)
        traffic = TrafficConfig(**settings)
        return MappingWorldConfig(
            agent_kind="conscientious",
            population=4,
            stigmergic=True,
            max_steps=2000,
            traffic=traffic,
            check_invariants=True,
        )

    def test_epidemic_unicast_smoke(self):
        topology = NetworkGenerator(MAPPING_NET, seed=31).generate_static()
        result = run_mapping(topology, self._config(), seed=8)
        report = result.traffic
        assert report is not None
        assert report.generated > 0
        assert report.delivered > 0
        assert conservation_holds(report)

    def test_store_and_forward_degrades_to_epidemic(self):
        topology = NetworkGenerator(MAPPING_NET, seed=31).generate_static()
        result = run_mapping(
            topology, self._config(router="store-and-forward"), seed=8
        )
        assert result.traffic.router == "epidemic"
        assert conservation_holds(result.traffic)


class TestTrafficPersistence:
    def test_routing_result_roundtrip_keeps_traffic(self):
        from repro.experiments.persistence import result_from_dict, result_to_dict

        config = routing_config(traffic=TrafficConfig(rate=1.0))
        result = run_routing(make_manet(), config, seed=5)
        rebuilt = result_from_dict(RoutingResult, result_to_dict(result))
        assert rebuilt.traffic == result.traffic

    def test_checkpoint_resume_reuses_traffic_results(self, tmp_path):
        variants = {"dtn": routing_config(traffic=TrafficConfig(rate=1.0))}
        first = run_routing_variants(
            ROUTING_NET,
            variants,
            runs=2,
            master_seed=6,
            checkpoint_dir=tmp_path,
        )
        resumed = run_routing_variants(
            ROUTING_NET,
            variants,
            runs=2,
            master_seed=6,
            checkpoint_dir=tmp_path,
        )
        assert [r.traffic for r in first["dtn"].results] == [
            r.traffic for r in resumed["dtn"].results
        ]


class TestTrafficObservability:
    def test_obs_metrics_mirror_the_traffic_report(self):
        from repro.obs import ObsConfig

        config = routing_config(
            traffic=TrafficConfig(rate=1.0),
            obs=ObsConfig(metrics=True),
        )
        result = run_routing(make_manet(), config, seed=5)
        report = result.traffic
        metrics = result.obs.metrics
        counters = metrics["counters"]
        for name in (
            "generated", "delivered", "expired", "dropped",
            "in_flight", "buffered",
        ):
            assert counters[f"traffic.{name}"] == getattr(report, name)
        assert counters["traffic.latency.overflow"] == report.latency_counts[-1]
        assert "traffic.buffered.series" in metrics["rings"]
