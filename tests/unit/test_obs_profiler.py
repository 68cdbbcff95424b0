"""Unit: phase profiler accounting, merging, and percentile summaries."""

from time import perf_counter

import pytest

from repro.net.generator import GeneratorConfig, NetworkGenerator
from repro.obs.collector import ObsConfig
from repro.obs.profiler import (
    SAMPLE_CAP,
    PhaseProfiler,
    merge_profiles,
    profile_table,
    summarize_profile,
)
from repro.routing.world import RoutingWorld, RoutingWorldConfig
from repro.sim.hooks import HookRegistry

ROUTING_NET = GeneratorConfig(
    node_count=30,
    target_edges=None,
    require_strong_connectivity=False,
    gateway_count=2,
    mobile_fraction=0.5,
)


class TestPhaseProfiler:
    def test_add_accumulates(self):
        profiler = PhaseProfiler()
        profiler.add("move", 0.5)
        profiler.add("move", 1.5)
        assert profiler.count("move") == 2
        assert profiler.total("move") == pytest.approx(2.0)
        assert profiler.total("absent") == 0.0
        assert profiler.phases() == ["move"]

    def test_lap_partitions_an_interval(self):
        profiler = PhaseProfiler()
        start = 10.0  # laps only compare against perf_counter-now
        mark = profiler.lap("a", start)
        end = profiler.lap("b", mark)
        assert profiler.total("a") + profiler.total("b") == pytest.approx(
            end - start, rel=1e-9
        )

    def test_sample_cap_bounds_memory(self):
        profiler = PhaseProfiler()
        for __ in range(SAMPLE_CAP + 10):
            profiler.add("x", 0.001)
        stats = profiler.as_dict()["x"]
        assert stats["count"] == SAMPLE_CAP + 10
        assert len(stats["samples"]) == SAMPLE_CAP

    def test_as_dict_sorted_and_complete(self):
        profiler = PhaseProfiler()
        profiler.add("b", 2.0)
        profiler.add("a", 1.0)
        payload = profiler.as_dict()
        assert list(payload) == ["a", "b"]
        assert payload["b"] == {
            "count": 1,
            "total": 2.0,
            "min": 2.0,
            "max": 2.0,
            "samples": [2.0],
        }


class TestMergeAndSummary:
    def test_merge_sums_counts_and_extremises(self):
        one, two = PhaseProfiler(), PhaseProfiler()
        one.add("move", 1.0)
        two.add("move", 3.0)
        two.add("meet", 0.5)
        merged = merge_profiles([one.as_dict(), None, two.as_dict()])
        assert merged["move"]["count"] == 2
        assert merged["move"]["total"] == pytest.approx(4.0)
        assert merged["move"]["min"] == 1.0 and merged["move"]["max"] == 3.0
        assert merged["meet"]["count"] == 1

    def test_summary_percentiles_are_ordered(self):
        profiler = PhaseProfiler()
        for value in range(1, 101):
            profiler.add("x", float(value))
        summary = summarize_profile(profiler.as_dict())["x"]
        assert summary["min"] <= summary["p50"] <= summary["p90"]
        assert summary["p90"] <= summary["p99"] <= summary["max"]
        assert summary["mean"] == pytest.approx(50.5)
        assert summary["sampled"] == 100

    def test_table_renders_every_phase(self):
        profiler = PhaseProfiler()
        profiler.add("alpha", 0.001)
        profiler.add("beta", 0.002)
        table = profile_table(summarize_profile(profiler.as_dict()))
        assert "alpha" in table and "beta" in table
        assert "p99_us" in table.splitlines()[0]


class TestWorldPhaseAccounting:
    def test_world_phases_sum_to_step_total(self):
        """Consecutive laps partition each step, so phases sum to 'step'."""
        topology = NetworkGenerator(ROUTING_NET, 5).generate_manet()
        config = RoutingWorldConfig(
            population=8,
            total_steps=25,
            converged_after=0,
            obs=ObsConfig(profile=True),
        )
        world = RoutingWorld(topology, config, 7)
        result = world.run()
        profile = result.obs.profile
        world_phases = ("decay", "decide", "meet", "move", "record")
        phase_sum = sum(profile[name]["total"] for name in world_phases)
        step_total = profile["step"]["total"]
        assert phase_sum == pytest.approx(step_total, rel=1e-6)
        assert all(profile[name]["count"] == 25 for name in world_phases)
        # Hook fires are timed too — that is where fault injection
        # accrues — but outside the world-phase partition.
        assert profile["step"]["count"] == 25
        assert any(name.startswith("hook:") for name in profile)

    def test_invariant_checks_are_their_own_phase(self):
        topology = NetworkGenerator(ROUTING_NET, 5).generate_manet()
        config = RoutingWorldConfig(
            population=8,
            total_steps=12,
            converged_after=0,
            check_invariants=True,
            obs=ObsConfig(profile=True),
        )
        world = RoutingWorld(topology, config, 7)
        profile = world.run().obs.profile
        assert world.invariants.checks == 12
        assert profile["invariants"]["count"] == 12
        assert profile["hook:step_end"]["count"] == 12


class TestHookPhases:
    def test_own_phase_is_left_out_of_the_hook(self):
        def slow(**_):
            started = perf_counter()
            while perf_counter() - started < 0.01:
                pass

        hooks = HookRegistry()
        profiler = PhaseProfiler()
        hooks.set_profiler(profiler)
        hooks.subscribe("step_end", slow, phase="checks")
        hooks.subscribe("step_end", lambda **_: None)
        hooks.fire("step_end", time=1)
        assert profiler.count("checks") == profiler.count("hook:step_end") == 1
        assert profiler.total("checks") >= 0.01
        assert profiler.total("hook:step_end") < 0.01
        hooks.unsubscribe("step_end", slow)
        hooks.subscribe("step_end", slow)
        hooks.fire("step_end", time=2)
        assert profiler.count("checks") == 1
        assert profiler.total("hook:step_end") >= 0.01
