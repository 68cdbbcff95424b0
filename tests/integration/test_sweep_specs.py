"""Integration: sweep specs through ``repro run`` end to end.

* a spec's report is **byte-identical** to the same experiment run from
  flags (a spec labels and nests its reports, never perturbs them);
* a spec sweep interrupted mid-way **resumes** from its checkpoints;
* a spec naming a baseline pack is drift-gated after its last unit;
* a spec owns its experiments, scale, runs, seeds and overlays, so the
  flags that set them are rejected beside it.
"""

import json

import pytest

from repro.cli import main
from repro.experiments import runner
from repro.experiments.spec import spec_from_dict

SPEC = {"name": "sweep", "experiments": ["fig7"], "runs": 2}


def write_spec(tmp_path, payload=SPEC, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def run(*argv):
    return main(["run", *map(str, argv), "--quiet", "--no-plot"])


class TestSpecRun:
    def test_spec_report_matches_direct_run(self, tmp_path, capsys):
        spec_dir, direct_dir = tmp_path / "spec", tmp_path / "direct"
        assert run(write_spec(tmp_path), "--json-dir", spec_dir) == 0
        assert run("fig7", "--runs", "2", "--json-dir", direct_dir) == 0
        spec_report = (spec_dir / "fig7-s2010" / "fig7.json").read_bytes()
        assert spec_report == (direct_dir / "fig7.json").read_bytes()

    def test_grid_spec_writes_one_report_per_unit(self, tmp_path, capsys):
        payload = {
            **SPEC,
            "name": "grid",
            "runs": 1,
            "seeds": [3, 4],
            "overlays": {"route_ttl": [10, 20]},
        }
        assert run(write_spec(tmp_path, payload), "--json-dir", tmp_path / "out") == 0
        labels = [unit.label for unit in spec_from_dict(payload).expand()]
        assert len(labels) == 4
        written = sorted(p.parent.name for p in (tmp_path / "out").rglob("*.json"))
        assert written == sorted(labels)

    def test_manifest_records_spec(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        assert run(write_spec(tmp_path), "--metrics-out", metrics) == 0
        options = json.loads(metrics.read_text())["manifest"]["options"]
        assert options["spec"] == "sweep"
        assert options["spec_fingerprint"] == spec_from_dict(SPEC).fingerprint()
        assert options["seeds"] == [2010]

    def test_metrics_trace_and_svg_artifacts(self, tmp_path, capsys):
        assert run(
            write_spec(tmp_path),
            "--metrics-out", tmp_path / "metrics.json",
            "--trace-out", tmp_path / "trace.jsonl",
            "--svg-dir", tmp_path / "svg",
        ) == 0
        assert (tmp_path / "metrics.json").exists()
        assert (tmp_path / "trace.jsonl").exists()
        assert (tmp_path / "svg" / "fig7-s2010" / "fig7.svg").exists()


class TestCrashResume:
    def test_mid_sweep_crash_then_rerun_resumes(self, tmp_path, monkeypatch, capsys):
        spec_path = write_spec(tmp_path)
        checkpoints = tmp_path / "checkpoints"
        real_task = runner._routing_task
        completed = []

        def crash_after_first(task):
            if completed:
                raise RuntimeError("simulated worker crash")
            out = real_task(task)
            completed.append((task[0], task[5]))
            return out

        monkeypatch.setattr(runner, "_routing_task", crash_after_first)
        assert run(spec_path, "--checkpoint-dir", checkpoints) == 2
        assert "simulated worker crash" in capsys.readouterr().err
        assert len(completed) == 1  # one task finished and was journalled

        recomputed = []

        def counting_task(task):
            recomputed.append((task[0], task[5]))
            return real_task(task)

        monkeypatch.setattr(runner, "_routing_task", counting_task)
        assert run(spec_path, "--checkpoint-dir", checkpoints) == 0
        # resume, not restart: the journalled task was never re-simulated.
        assert completed[0] not in recomputed
        assert recomputed  # and the rest of the sweep did run


class TestDriftGate:
    def test_calibrate_then_run_is_drift_gated(self, tmp_path, capsys):
        pack_path = tmp_path / "pack.json"
        spec_path = write_spec(
            tmp_path, {**SPEC, "name": "gated", "baseline_pack": str(pack_path)}
        )
        assert main(["calibrate", str(spec_path), "--out", str(pack_path), "--quiet"]) == 0

        # same seeds, same code: the drift check must pass.
        assert run(spec_path) == 0
        capsys.readouterr()

        # poison the pack: the identical run must now fail the gate.
        pack = json.loads(pack_path.read_text())
        entry = pack["experiments"]["fig7-s2010"]["metrics"]
        entry["series.oldest-node.final"] += 10.0
        pack_path.write_text(json.dumps(pack))
        assert run(spec_path) == 1
        err = capsys.readouterr().err
        assert "drift: fig7-s2010: series.oldest-node.final" in err

    def test_pack_for_another_spec_fails_the_gate(self, tmp_path, capsys):
        pack_path = tmp_path / "pack.json"
        spec_path = write_spec(
            tmp_path, {**SPEC, "name": "gated", "baseline_pack": str(pack_path)}
        )
        assert main(["calibrate", str(spec_path), "--out", str(pack_path), "--quiet"]) == 0
        pack = json.loads(pack_path.read_text())
        pack["spec_fingerprint"] = "0123456789abcdef"
        pack_path.write_text(json.dumps(pack))
        capsys.readouterr()

        assert run(spec_path) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert "0123456789abcdef" in line and "repro calibrate" in line


class TestSpecFlags:
    @pytest.mark.parametrize(
        "flags",
        [["--seed", "7"], ["--loss", "0.2"], ["--runs", "3"], ["--paper-scale"],
         ["--quarantine"]],
    )
    def test_spec_owned_flag_exits_2(self, tmp_path, capsys, flags):
        assert run(write_spec(tmp_path), *flags) == 2
        err = capsys.readouterr().err
        assert f"{flags[0]} cannot be combined with a sweep spec" in err

    def test_spec_carrying_limits_rejected(self, tmp_path, capsys):
        payload = {**SPEC, "limits": {"workers": 2}}
        assert run(write_spec(tmp_path, payload)) == 2
        assert "'limits' is no longer a spec key; use the --workers" in (
            capsys.readouterr().err
        )

    def test_invalid_spec_rejected(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path, {"name": "bad", "experiments": ["nope99"]})
        assert run(spec_path) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_missing_spec_file_rejected(self, tmp_path, capsys):
        assert run(tmp_path / "absent.yaml") == 2
        assert "cannot read spec" in capsys.readouterr().err

    def test_calibrate_needs_a_spec(self, tmp_path, capsys):
        assert main(["calibrate", "fig7", "--out", str(tmp_path / "pack.json")]) == 2
        assert "calibrate takes a sweep spec file" in capsys.readouterr().err
