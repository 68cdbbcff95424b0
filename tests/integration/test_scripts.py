"""Integration: helper scripts run against archived reports."""

import importlib.util
import json
import pathlib
import subprocess
import sys

from repro.analysis.series import TimeSeries
from repro.experiments.persistence import save_report
from repro.experiments.report import ExperimentReport

SCRIPTS_DIR = pathlib.Path(__file__).resolve().parents[2] / "scripts"


def archived_report(tmp_path):
    report = ExperimentReport(
        experiment_id="figZ",
        title="archived sample",
        paper_claim="whatever",
        columns=["variant", "value"],
    )
    report.add_row("a", 1)
    report.series["a"] = TimeSeries([1, 2], [0.1, 0.9])
    return save_report(report, tmp_path)


class TestRenderResults:
    def test_renders_single_file(self, tmp_path):
        path = archived_report(tmp_path)
        proc = subprocess.run(
            [sys.executable, str(SCRIPTS_DIR / "render_results.py"), str(path)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "figZ: archived sample" in proc.stdout
        assert "legend" in proc.stdout

    def test_renders_directory_without_plots(self, tmp_path):
        archived_report(tmp_path)
        proc = subprocess.run(
            [
                sys.executable,
                str(SCRIPTS_DIR / "render_results.py"),
                str(tmp_path),
                "--no-plot",
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "figZ" in proc.stdout
        assert "legend" not in proc.stdout

    def test_empty_directory_errors(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, str(SCRIPTS_DIR / "render_results.py"), str(tmp_path)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 1


class TestGcShare:
    @staticmethod
    def _run(*arguments):
        return subprocess.run(
            [sys.executable, str(SCRIPTS_DIR / "gc_share.py"), *arguments],
            capture_output=True,
            text=True,
            timeout=120,
        )

    def test_reports_pauses_per_generation(self):
        proc = self._run("--workload", "manet_arena", "--reps", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert (result["workload"], result["seed"], result["reps"]) == ("manet_arena", 2010, 1)
        generations = result["by_generation"]
        assert [entry["generation"] for entry in generations] == [0, 1, 2]
        assert result["cpu_s"] > 0
        assert result["gc_s"] >= 0 and sum(entry["collections"] for entry in generations) > 0

    def test_rejects_zero_repetitions(self):
        proc = self._run("--workload", "manet_arena", "--reps", "0")
        assert proc.returncode == 2
        assert "--reps must be >= 1" in proc.stderr


def load_script(name):
    """Import ``scripts/<name>.py`` as a module."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestMicroBenchRegistry:
    """The substrate micro-bench's pairs and the gate's floors agree."""

    baseline = load_script("bench_baseline")
    compare = load_script("bench_compare")

    def test_every_pair_names_two_registered_workloads(self):
        workloads = self.baseline.WORKLOADS
        for fast, oracle in self.baseline.SPEEDUP_PAIRS.items():
            assert fast in workloads and oracle in workloads, (fast, oracle)
            assert fast != oracle

    def test_every_pair_has_a_floor_at_every_scale(self):
        pairs = set(self.baseline.SPEEDUP_PAIRS)
        floors = self.compare.DEFAULT_MIN_SPEEDUPS
        assert set(floors) == set(self.baseline.SCALES)
        for scale, by_pair in floors.items():
            assert set(by_pair) == pairs, scale
            assert all(floor > 1.0 for floor in by_pair.values()), scale

    def test_overrides_name_registered_pairs_or_workloads(self):
        for scale, overrides in self.baseline.ITERATION_OVERRIDES.items():
            assert set(overrides) <= set(self.baseline.WORKLOADS), scale
            assert not set(overrides) & set(self.baseline.SPEEDUP_PAIRS.values()), scale

    def test_both_scripts_speak_one_schema(self):
        assert self.compare.BENCH_SCHEMA == self.baseline.BENCH_SCHEMA
