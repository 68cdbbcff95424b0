"""Integration: helper scripts run against archived reports."""

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
