"""Integration: fault-injected runs are deterministic and degrade gracefully.

The acceptance bar from the fault subsystem's design: a seeded fault
plan (crash + recovery mid-run) produces bit-identical results whether
the sweep runs serially or across pool workers, and connectivity
re-converges after a gateway outage to within tolerance of the no-fault
baseline.
"""

import pytest

from repro.experiments.runner import (
    RunDefaults,
    clear_topology_cache,
    defaults_scope,
    run_mapping_variants,
    run_routing_variants,
)
from repro.faults.plan import FaultPlan, parse_fault_plan
from repro.mapping.world import MappingWorldConfig, run_mapping
from repro.net.generator import GeneratorConfig, NetworkGenerator
from repro.routing.world import RoutingWorldConfig, run_routing

ROUTING_NET = GeneratorConfig(
    node_count=40,
    target_edges=None,
    require_strong_connectivity=False,
    gateway_count=3,
    mobile_fraction=0.5,
)
MAPPING_NET = GeneratorConfig(
    node_count=30, target_edges=None, require_strong_connectivity=True
)


@pytest.fixture(autouse=True)
def fresh_topology_cache():
    clear_topology_cache()
    yield
    clear_topology_cache()


def churn_plan(policy="respawn"):
    return (
        FaultPlan.random_churn(
            99,
            node_count=40,
            start=10,
            end=25,
            crashes=4,
            min_downtime=5,
            max_downtime=12,
            agent_policy=policy,
        )
        .gateway_outage(15, 30)
        .blackout(12, 1, 2)
        .restore(22, 1, 2)
    )


class TestFaultedRunDeterminism:
    def test_routing_serial_vs_pool_bit_identical(self):
        variants = {
            "faulted": RoutingWorldConfig(
                population=8,
                total_steps=50,
                converged_after=25,
                fault_plan=churn_plan(),
            )
        }
        serial = run_routing_variants(ROUTING_NET, variants, runs=3, master_seed=6)
        pooled = run_routing_variants(
            ROUTING_NET, variants, runs=3, master_seed=6, workers=4
        )
        assert [r.connectivity for r in serial["faulted"].results] == [
            r.connectivity for r in pooled["faulted"].results
        ]
        assert [r.resilience for r in serial["faulted"].results] == [
            r.resilience for r in pooled["faulted"].results
        ]

    def test_mapping_serial_vs_pool_bit_identical(self):
        plan = FaultPlan().crash(5, 3).recover(20, 3).with_policy("respawn")
        variants = {
            "faulted": MappingWorldConfig(
                population=4, max_steps=1500, fault_plan=plan
            )
        }
        serial = run_mapping_variants(MAPPING_NET, variants, runs=3, master_seed=9)
        clear_topology_cache()
        pooled = run_mapping_variants(
            MAPPING_NET, variants, runs=3, master_seed=9, workers=4
        )
        assert serial["faulted"].finishing_times == pooled["faulted"].finishing_times
        assert [r.average_knowledge for r in serial["faulted"].results] == [
            r.average_knowledge for r in pooled["faulted"].results
        ]

    def test_same_plan_same_seed_same_world(self):
        topology = NetworkGenerator(ROUTING_NET, 7).generate_manet()
        config = RoutingWorldConfig(
            population=8, total_steps=40, converged_after=20, fault_plan=churn_plan()
        )
        first = run_routing(topology, config, seed=3)
        again = run_routing(
            NetworkGenerator(ROUTING_NET, 7).generate_manet(), config, seed=3
        )
        assert first.connectivity == again.connectivity
        assert first.resilience == again.resilience


class TestGatewayOutageRecovery:
    def test_connectivity_reconverges_near_no_fault_baseline(self):
        plan = FaultPlan().gateway_outage(20, 35)
        faulted_config = RoutingWorldConfig(
            population=12, total_steps=100, converged_after=50, fault_plan=plan
        )
        baseline_config = RoutingWorldConfig(
            population=12, total_steps=100, converged_after=50
        )
        deltas = []
        for seed in range(3):
            topology = NetworkGenerator(ROUTING_NET, 11).generate_manet()
            faulted = run_routing(topology, faulted_config, seed=seed)
            topology = NetworkGenerator(ROUTING_NET, 11).generate_manet()
            baseline = run_routing(topology, baseline_config, seed=seed)
            tail = slice(60, None)  # well after the outage ends at 35
            faulted_tail = faulted.connectivity[tail]
            baseline_tail = baseline.connectivity[tail]
            deltas.append(
                sum(faulted_tail) / len(faulted_tail)
                - sum(baseline_tail) / len(baseline_tail)
            )
        # Averaged over seeds, the recovered tail sits within a small
        # tolerance of the never-faulted run.
        assert abs(sum(deltas) / len(deltas)) < 0.1

    def test_resilience_report_sees_the_dip(self):
        plan = FaultPlan().gateway_outage(20, 35)
        config = RoutingWorldConfig(
            population=12, total_steps=100, converged_after=50, fault_plan=plan
        )
        topology = NetworkGenerator(ROUTING_NET, 11).generate_manet()
        result = run_routing(topology, config, seed=1)
        report = result.resilience
        assert report is not None
        assert report.faults_injected == 2
        assert report.first_fault_time == 20
        assert report.last_fault_time == 35
        assert report.dip_depth >= 0.0
        assert report.agents_total == 12


class TestAgentPolicies:
    def _run_with_policy(self, policy):
        plan = churn_plan(policy=policy)
        config = RoutingWorldConfig(
            population=10, total_steps=50, converged_after=25, fault_plan=plan
        )
        topology = NetworkGenerator(ROUTING_NET, 13).generate_manet()
        return run_routing(topology, config, seed=2)

    def test_die_policy_can_lose_agents(self):
        result = self._run_with_policy("die")
        assert result.resilience.agents_alive <= result.resilience.agents_total

    def test_respawn_policy_keeps_population(self):
        result = self._run_with_policy("respawn")
        assert result.resilience.agents_alive == result.resilience.agents_total
        assert result.resilience.agent_survival == 1.0

    def test_freeze_policy_keeps_population(self):
        result = self._run_with_policy("freeze")
        assert result.resilience.agents_alive == result.resilience.agents_total

    def test_mapping_survives_all_agents_dying(self):
        # Crash the whole network out from under a tiny team: the run
        # must stop cleanly (all-agents-dead), never hang or crash.
        plan = FaultPlan(agent_policy="die")
        for node in range(30):
            plan = plan.crash(5, node)
        topology = NetworkGenerator(MAPPING_NET, 21).generate_static()
        config = MappingWorldConfig(population=3, max_steps=500, fault_plan=plan)
        result = run_mapping(topology, config, seed=4)
        assert result.steps_simulated <= 500
        assert not result.finished


class TestDefaultFaultPlanInjection:
    def test_cli_style_default_plan_applies_to_all_variants(self):
        plan = parse_fault_plan("crash@10:3;recover@25:3")
        variants = {
            "a": RoutingWorldConfig(population=6, total_steps=30, converged_after=15),
            "b": RoutingWorldConfig(
                agent_kind="random", population=6, total_steps=30, converged_after=15
            ),
        }
        with defaults_scope(RunDefaults(fault_plan=plan)):
            outcomes = run_routing_variants(
                ROUTING_NET, variants, runs=1, master_seed=3
            )
        for name in variants:
            assert outcomes[name].results[0].resilience is not None
