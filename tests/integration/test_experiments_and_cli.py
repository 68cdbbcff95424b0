"""Integration: every registered experiment runs end-to-end at quick scale,
and the CLI drives them."""

import json

import pytest

from repro.cli import main
from repro.experiments import get_experiment, list_experiments
from repro.experiments.config import Scale
from repro.experiments.runner import clear_topology_cache

# An even smaller scale than QUICK so running all 14 experiments stays fast.
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
def fresh_cache():
    clear_topology_cache()
    yield
    clear_topology_cache()


class TestAllExperiments:
    @pytest.mark.parametrize(
        "experiment_id", [e.experiment_id for e in list_experiments()]
    )
    def test_runs_and_renders(self, experiment_id):
        experiment = get_experiment(experiment_id)
        report = experiment.run(TINY, master_seed=42)
        assert report.experiment_id == experiment_id
        assert report.rows, "every experiment reports at least one row"
        text = report.render()
        assert experiment_id in text
        assert "paper claim" in text

    def test_reports_are_deterministic(self):
        first = get_experiment("fig1").run(TINY, master_seed=7).render()
        clear_topology_cache()
        second = get_experiment("fig1").run(TINY, master_seed=7).render()
        assert first == second

    def test_master_seed_changes_results(self):
        first = get_experiment("fig7").run(TINY, master_seed=1).render()
        second = get_experiment("fig7").run(TINY, master_seed=2).render()
        assert first != second


class TestProgressCallback:
    def test_progress_reported_per_run(self):
        calls = []
        get_experiment("fig3").run(
            TINY, master_seed=42, progress=lambda s, d, t: calls.append((s, d, t))
        )
        assert calls == [("mapping", 1, 2), ("mapping", 2, 2)]


class TestCli:
    def test_list_json_metadata(self, capsys):
        assert main(["list", "--json"]) == 0
        metadata = json.loads(capsys.readouterr().out)
        fig7 = next(entry for entry in metadata if entry["id"] == "fig7")
        assert fig7["scenario"] == "routing"
        assert fig7["tiers"] == ["quick", "paper"]
        assert {"id", "title", "scenario", "tiers"} <= set(fig7)

    def test_cli_quick_run(self, capsys, monkeypatch):
        # Patch QUICK usage by running the tiniest real experiment id at
        # quick scale would be slow; fig1 at QUICK is the fastest mapping
        # experiment and completes in seconds.
        import repro.cli as cli_module

        monkeypatch.setattr(cli_module, "QUICK", TINY)
        assert main(["run", "fig1", "--quiet", "--no-plot"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out
        assert "scale=tiny" in out

    @pytest.mark.parametrize("experiment_id", ["fig10", "fig11", "ext1"])
    def test_welch_tested_experiment_rejects_one_run(
        self, experiment_id, capsys, monkeypatch
    ):
        import repro.experiments.routing_experiments as routing_experiments

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before rejecting --runs 1")

        monkeypatch.setattr(routing_experiments, "run_routing_variants", no_simulation)
        argv = ["run", experiment_id, "--paper-scale", "--runs", "1", "--quiet", "--no-plot"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{experiment_id} compares variants with Welch's t-test" in err
        assert "at least 2 runs" in err


class TestRunFlagsScope:
    """``repro run`` scopes one frozen RunDefaults to its own sweeps."""

    @pytest.mark.parametrize(
        "experiment_id, crash_node, code",
        # fig1 is a mapping sweep, fig7 a routing one; crashing a node the
        # network lacks fails the sweep inside the scope, so it exits 2.
        [("fig1", 3, 0), ("fig7", 3, 0), ("fig7", 99, 2)],
    )
    def test_flags_leave_no_defaults_behind(
        self, experiment_id, crash_node, code, capsys, monkeypatch
    ):
        import repro.cli as cli_module
        from repro.experiments.runner import RunDefaults, current_defaults

        monkeypatch.setattr(cli_module, "QUICK", TINY)
        argv = [
            "run", experiment_id, "--runs", "1", "--quiet", "--no-plot",
            "--faults", f"crash@10:{crash_node};recover@30:{crash_node};policy=respawn",
            "--route-ttl", "7", "--check-invariants",
        ]
        assert main(argv) == code
        assert current_defaults() == RunDefaults()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--workers", "0"),
            ("--workers", "-3"),
            ("--route-ttl", "0"),
            ("--task-timeout", "0"),
            ("--task-retries", "-1"),
        ],
    )
    def test_bad_values_exit_2_before_simulating(
        self, flag, value, capsys, monkeypatch
    ):
        import repro.experiments.mapping_experiments as mapping_experiments

        def no_simulation(*args, **kwargs):
            raise AssertionError(f"simulated despite {flag} {value}")

        monkeypatch.setattr(mapping_experiments, "run_mapping_variants", no_simulation)
        assert main(["run", "fig1", "--quiet", "--no-plot", flag, value]) == 2
        assert "must be" in capsys.readouterr().err

    def test_run_defaults_are_frozen(self):
        import dataclasses

        from repro.experiments.runner import RunDefaults

        with pytest.raises(dataclasses.FrozenInstanceError):
            RunDefaults().workers = 4
