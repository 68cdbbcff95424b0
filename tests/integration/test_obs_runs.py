"""Integration: observability is zero-impact off, deterministic on.

The contract under test:

* obs off (the default) produces bit-identical core results to obs on —
  the collector touches no RNG and no simulation state;
* merged metrics and traces are identical between serial and pooled
  sweeps;
* the CLI flags produce a manifest-carrying metrics JSON, a
  schema-versioned JSONL trace, and per-phase percentile tables;
* per-run reports survive the checkpoint-journal round-trip.
"""

import json

import pytest

from repro.cli import main
from repro.experiments.persistence import (
    read_journal,
    result_from_dict,
    result_to_dict,
)
from repro.experiments.runner import (
    RunDefaults,
    clear_topology_cache,
    defaults_scope,
    run_routing_variants,
)
from repro.net.generator import GeneratorConfig, NetworkGenerator
from repro.obs import EVENT_SCHEMA, ObsAccumulator, ObsConfig
from repro.obs.output import METRICS_FILE_SCHEMA
from repro.routing.world import RoutingResult, RoutingWorld, RoutingWorldConfig

ROUTING_NET = GeneratorConfig(
    node_count=40,
    target_edges=None,
    require_strong_connectivity=False,
    gateway_count=3,
    mobile_fraction=0.5,
)

FULL_OBS = ObsConfig(metrics=True, events=True, profile=True)


@pytest.fixture(autouse=True)
def fresh_topology_cache():
    clear_topology_cache()
    yield
    clear_topology_cache()


def _world_result(obs):
    topology = NetworkGenerator(ROUTING_NET, 11).generate_manet()
    config = RoutingWorldConfig(
        population=10, total_steps=30, converged_after=10, obs=obs
    )
    return RoutingWorld(topology, config, 13).run()


class TestZeroOverheadContract:
    def test_obs_on_never_changes_core_results(self):
        plain = _world_result(None)
        observed = _world_result(FULL_OBS)
        assert plain.obs is None and observed.obs is not None
        assert observed.times == plain.times
        assert observed.connectivity == plain.connectivity
        assert observed.meetings == plain.meetings
        assert observed.overhead == plain.overhead

    def test_disabled_config_builds_no_collector(self):
        result = _world_result(ObsConfig())  # all layers off
        assert result.obs is None


class TestSerialVsPooled:
    def _sweep(self, workers):
        accumulator = ObsAccumulator()
        accumulator.start_experiment("exp")
        defaults = RunDefaults(
            obs=ObsConfig(metrics=True, events=True), obs_accumulator=accumulator
        )
        variants = {
            "plain": RoutingWorldConfig(
                population=6, total_steps=20, converged_after=5
            ),
            "stig": RoutingWorldConfig(
                population=6, total_steps=20, converged_after=5, stigmergic=True
            ),
        }
        with defaults_scope(defaults):
            run_routing_variants(
                ROUTING_NET, variants, runs=3, master_seed=5, workers=workers
            )
        return accumulator

    def test_merged_obs_identical_across_worker_counts(self, tmp_path):
        serial = self._sweep(workers=1)
        pooled = self._sweep(workers=2)
        assert len(serial) == len(pooled) == 6
        assert serial.merged_metrics("exp") == pooled.merged_metrics("exp")
        manifest = {"pin": 1}
        serial_trace = serial.write_trace(tmp_path / "serial.jsonl", manifest)
        pooled_trace = pooled.write_trace(tmp_path / "pooled.jsonl", manifest)
        assert serial_trace.read_text() == pooled_trace.read_text()

    def test_merged_counters_cover_overhead_and_channel(self):
        accumulator = self._sweep(workers=1)
        counters = accumulator.merged_metrics("exp")["counters"]
        assert counters["runs"] == 6
        assert counters["overhead.decisions"] > 0
        assert counters["channel.attempts"] > 0
        assert "overhead.meetings" in counters


class TestCheckpointRoundTrip:
    def test_obs_report_survives_result_serialization(self):
        result = _world_result(FULL_OBS)
        payload = result_to_dict(result)
        assert json.loads(json.dumps(payload)) == payload
        restored = result_from_dict(RoutingResult, payload)
        assert restored.obs is not None
        assert restored.obs.metrics == result.obs.metrics
        assert restored.obs.events == result.obs.events
        assert restored.obs.profile == result.obs.profile

    def test_obs_free_result_round_trips_to_none(self):
        payload = result_to_dict(_world_result(None))
        assert payload["obs"] is None
        assert result_from_dict(RoutingResult, payload).obs is None


class TestCliEndToEnd:
    def test_run_with_all_obs_flags(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.json"
        trace_path = tmp_path / "t.jsonl"
        code = main(
            [
                "run",
                "fig7",
                "--runs",
                "2",
                "--quiet",
                "--no-plot",
                "--profile",
                "--metrics-out",
                str(metrics_path),
                "--trace-out",
                str(trace_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "p99_us" in out  # the percentile table was printed

        document = json.loads(metrics_path.read_text())
        assert document["schema"] == METRICS_FILE_SCHEMA
        manifest = document["manifest"]
        assert manifest["master_seed"] == 2010
        assert manifest["experiments"] == ["fig7"]
        for key in ("config_hash", "package_version", "platform", "created_at"):
            assert key in manifest

        block = document["experiments"]["fig7"]
        counters = block["metrics"]["counters"]
        assert counters["runs"] > 0
        assert counters["overhead.decisions"] > 0
        assert counters["channel.attempts"] > 0
        assert counters["agents.hops"] > 0
        assert "connectivity.series" in block["metrics"]["rings"]
        assert "step" in block["profile"] and "move" in block["profile"]

        header, events = read_journal(trace_path, EVENT_SCHEMA, "trace")
        assert header["schema"] == EVENT_SCHEMA
        assert header["manifest"]["experiments"] == ["fig7"]
        assert events, "trace must contain events"
        for event in events:
            assert event["experiment"] == "fig7"
            assert event["scenario"] == "routing"
            for key in ("variant", "run", "seq", "time", "kind", "payload"):
                assert key in event

    def test_manifest_options_are_json_values(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.json"
        assert main(
            ["run", "fig7", "--runs", "1", "--quiet", "--no-plot",
             "--loss", "fixed=0.2,retries=2", "--metrics-out", str(metrics_path)]
        ) == 0
        options = json.loads(metrics_path.read_text())["manifest"]["options"]
        assert options["loss"] == "fixed=0.2,retries=2"
        assert options["route_ttl"] is None
        assert options["quarantine"] is False
        assert options["runs"] == 1

    def test_obs_flags_off_leave_reports_unchanged(self, tmp_path):
        plain_dir = tmp_path / "plain"
        obs_dir = tmp_path / "obs"
        assert main(
            ["run", "fig7", "--runs", "2", "--quiet", "--no-plot",
             "--json-dir", str(plain_dir)]
        ) == 0
        assert main(
            ["run", "fig7", "--runs", "2", "--quiet", "--no-plot",
             "--json-dir", str(obs_dir),
             "--metrics-out", str(tmp_path / "m.json"), "--profile"]
        ) == 0
        plain = (plain_dir / "fig7.json").read_text()
        observed = (obs_dir / "fig7.json").read_text()
        assert observed == plain
