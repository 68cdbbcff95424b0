"""Integration: the service layer end to end.

The acceptance bar for the service plane:

* a spec submitted through the queue produces a report **bit-identical**
  to the same experiment invoked directly (the service adds provenance,
  never perturbs results);
* a job that crashes mid-sweep and is requeued **resumes** from its
  checkpoint directory instead of restarting;
* cancellation lands at a task boundary and leaves completed work
  journalled;
* the CLI front ends (submit / serve / jobs / cancel / export /
  calibrate / list --json) drive the same machinery.
"""

import dataclasses
import json

from repro.cli import main
from repro.experiments import runner
from repro.experiments.config import QUICK
from repro.experiments.persistence import load_report, report_to_dict
from repro.experiments.registry import get_experiment
from repro.service import (
    ExperimentService,
    load_bundle,
    spec_from_dict,
)

SPEC = {"name": "svc", "experiments": ["fig7"], "runs": 2}


def write_spec(tmp_path, payload=SPEC, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestBitIdentity:
    def test_service_report_matches_direct_run(self, tmp_path):
        service = ExperimentService(tmp_path / "svc")
        job = service.submit(spec_from_dict(SPEC))
        counts = service.serve()
        assert counts["done"] == 1

        svc_report = load_report(
            service.job_dir(job.job_id) / "reports" / "fig7-s2010" / "fig7.json"
        )
        scale = dataclasses.replace(QUICK, runs=2)
        direct = get_experiment("fig7").run(scale, master_seed=2010)
        assert report_to_dict(svc_report) == report_to_dict(direct)

    def test_job_dir_layout_and_manifest(self, tmp_path):
        service = ExperimentService(tmp_path / "svc")
        spec = spec_from_dict(SPEC)
        job = service.submit(spec)
        service.serve()

        job_dir = service.job_dir(job.job_id)
        assert (job_dir / "spec.json").exists()
        assert list((job_dir / "checkpoints").glob("*.jsonl"))
        manifest = json.loads((job_dir / "manifest.json").read_text())
        block = manifest["service"]
        assert block["job_id"] == job.job_id
        assert block["spec_fingerprint"] == spec.fingerprint()
        assert block["units"] == ["fig7-s2010"]


class TestCrashResume:
    def test_mid_sweep_crash_then_requeue_resumes(self, tmp_path, monkeypatch):
        service = ExperimentService(tmp_path / "svc")
        job = service.submit(spec_from_dict(SPEC))

        real_task = runner._routing_task
        completed = []

        def crash_after_first(task):
            if completed:
                raise RuntimeError("simulated worker crash")
            out = real_task(task)
            completed.append((task[0], task[5]))
            return out

        monkeypatch.setattr(runner, "_routing_task", crash_after_first)
        counts = service.serve()
        assert counts["failed"] == 1
        assert "simulated worker crash" in service.queue.get(job.job_id).error
        assert len(completed) == 1  # one task finished and was journalled

        recomputed = []

        def counting_task(task):
            recomputed.append((task[0], task[5]))
            return real_task(task)

        monkeypatch.setattr(runner, "_routing_task", counting_task)
        service.queue.requeue(job.job_id)
        counts = service.serve()
        assert counts["done"] == 1
        # resume, not restart: the journalled task was never re-simulated.
        assert completed[0] not in recomputed
        assert recomputed  # and the rest of the sweep did run

    def test_dead_server_recovery_requeues_running_job(self, tmp_path):
        first = ExperimentService(tmp_path / "svc")
        job = first.submit(spec_from_dict(SPEC))
        first.queue.transition(job.job_id, "running")
        # the process dies here; a fresh server recovers the orphan.
        second = ExperimentService(tmp_path / "svc")
        assert second.queue.get(job.job_id).state == "queued"
        assert second.serve()["done"] == 1


class TestCancellation:
    def test_cancel_running_job_stops_at_task_boundary(self, tmp_path):
        service = ExperimentService(tmp_path / "svc")
        job = service.submit(spec_from_dict(SPEC))

        def cancel_after_first(label, scenario, done, total):
            if done >= 1:
                service.cancel(job.job_id)

        service.progress = cancel_after_first
        counts = service.serve()
        assert counts["cancelled"] == 1
        assert "cancelled" in service.queue.get(job.job_id).error
        # completed work stayed checkpointed ...
        checkpoints = list(
            (service.job_dir(job.job_id) / "checkpoints").glob("*.jsonl")
        )
        assert checkpoints
        # ... so a requeue finishes the job.
        service.progress = None
        service.queue.requeue(job.job_id)
        assert service.serve()["done"] == 1

    def test_two_workers_one_cancelled_other_completes(self, tmp_path):
        service = ExperimentService(tmp_path / "svc", workers=2)
        keep = service.submit(spec_from_dict(SPEC))
        drop = service.submit(
            spec_from_dict({**SPEC, "name": "svc-drop", "seeds": [7]})
        )
        service.cancel(drop.job_id)  # still queued: cancelled outright
        counts = service.serve()
        assert counts["done"] == 1
        assert counts["cancelled"] == 1
        assert service.queue.get(keep.job_id).state == "done"
        assert service.queue.get(drop.job_id).state == "cancelled"


class TestServiceCLI:
    def test_list_json_metadata(self, capsys):
        assert main(["list", "--json"]) == 0
        metadata = json.loads(capsys.readouterr().out)
        fig7 = next(entry for entry in metadata if entry["id"] == "fig7")
        assert fig7["scenario"] == "routing"
        assert fig7["tiers"] == ["quick", "paper"]
        assert {"id", "title", "scenario", "tiers"} <= set(fig7)

    def test_submit_serve_jobs_export_round_trip(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path)
        svc = str(tmp_path / "svc")

        assert main(["submit", str(spec_path), "--service-dir", svc]) == 0
        job_id = capsys.readouterr().out.strip()
        assert job_id.startswith("j0001-")

        assert main(["serve", "--service-dir", svc, "--quiet"]) == 0
        capsys.readouterr()

        assert main(["jobs", "--service-dir", svc, "--json"]) == 0
        jobs = json.loads(capsys.readouterr().out)
        assert jobs[0]["state"] == "done"

        bundle_path = tmp_path / "bundle.tar.gz"
        assert main(
            ["export", job_id, "--service-dir", svc, "--out", str(bundle_path)]
        ) == 0
        bundle = load_bundle(bundle_path)
        assert "fig7-s2010" in bundle["reports"]
        assert (
            bundle["manifest"]["service"]["spec_fingerprint"]
            == spec_from_dict(SPEC).fingerprint()
        )

    def test_calibrate_then_drift_gated_serve(self, tmp_path, capsys):
        pack_path = tmp_path / "pack.json"
        gated = {**SPEC, "name": "gated", "baseline_pack": str(pack_path)}
        spec_path = write_spec(tmp_path, gated)
        svc = str(tmp_path / "svc")

        assert main(
            ["calibrate", str(spec_path), "--out", str(pack_path), "--quiet"]
        ) == 0
        capsys.readouterr()

        # same seeds, same code: the drift check must pass.
        assert main(["submit", str(spec_path), "--service-dir", svc]) == 0
        capsys.readouterr()
        assert main(["serve", "--service-dir", svc, "--quiet"]) == 0
        capsys.readouterr()

        # poison the pack: the next identical job must fail the gate.
        pack = json.loads(pack_path.read_text())
        entry = pack["experiments"]["fig7-s2010"]["metrics"]
        entry["series.oldest-node.final"] = entry["series.oldest-node.final"] + 10.0
        pack_path.write_text(json.dumps(pack))

        assert main(["submit", str(spec_path), "--service-dir", svc]) == 0
        capsys.readouterr()
        assert main(["serve", "--service-dir", svc, "--quiet"]) == 1
        capsys.readouterr()
        assert main(["jobs", "--service-dir", svc, "--json"]) == 0
        jobs = json.loads(capsys.readouterr().out)
        drifted = jobs[-1]
        assert drifted["state"] == "failed"
        assert any("series.oldest-node.final" in v for v in drifted["drift"])

    def test_cancel_and_requeue_commands(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path)
        svc = str(tmp_path / "svc")
        assert main(["submit", str(spec_path), "--service-dir", svc]) == 0
        job_id = capsys.readouterr().out.strip()

        assert main(["cancel", job_id, "--service-dir", svc]) == 0
        assert "cancelled" in capsys.readouterr().out
        assert main(["requeue", job_id, "--service-dir", svc]) == 0
        capsys.readouterr()
        assert main(["serve", "--service-dir", svc, "--quiet"]) == 0

    def test_submit_rejects_invalid_spec(self, tmp_path, capsys):
        spec_path = write_spec(
            tmp_path, {"name": "bad", "experiments": ["nope99"]}
        )
        assert main(
            ["submit", str(spec_path), "--service-dir", str(tmp_path / "svc")]
        ) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestOutputsThroughService:
    def test_metrics_trace_and_svg_artifacts(self, tmp_path):
        spec = spec_from_dict(
            {
                **SPEC,
                "name": "arty",
                "outputs": {"metrics": True, "trace": True, "svg": True},
            }
        )
        service = ExperimentService(tmp_path / "svc")
        job = service.submit(spec)
        assert service.serve()["done"] == 1
        job_dir = service.job_dir(job.job_id)
        assert (job_dir / "metrics.json").exists()
        assert (job_dir / "trace.jsonl").exists()
        assert (job_dir / "reports" / "fig7-s2010" / "fig7.svg").exists()
