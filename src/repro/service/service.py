"""The experiment service: executes queued sweep specs on a worker pool.

This is the front door of the repo: many submitted sweeps share one
long-running process with bounded concurrency.  Each job runs through
the *existing* hardened runner — per-task timeouts, bounded retries,
worker-crash isolation, checkpoint/resume — inside a
:func:`~repro.experiments.runner.defaults_scope`, so concurrent jobs
each see their own hermetic overlay set.  ``repro run`` scopes the
defaults built from its flags the same way.

Per job, the service materializes a directory::

    <service-dir>/jobs/<job-id>/
        spec.json          the normalized spec that ran
        manifest.json      run manifest + service provenance block
        checkpoints/       the runner's sweep journals (resume lives here)
        reports/<label>/   one saved ExperimentReport per expanded unit
        metrics.json       merged obs counters   (outputs.metrics)
        trace.jsonl        event stream          (outputs.trace)

Cancellation is cooperative at *task* granularity: the runner's progress
callback doubles as the cancellation point, so a cancel lands within one
(variant, run) simulation and everything already completed stays
journalled.  A cancelled or crashed job that is requeued therefore
resumes from its checkpoints instead of restarting.
"""

from __future__ import annotations

import json
import pathlib
import threading
import time
import traceback
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.errors import ExperimentError, ReproError
from repro.experiments.persistence import save_report, save_svg
from repro.experiments.registry import get_experiment
from repro.experiments.report import ExperimentReport
from repro.experiments.runner import RunDefaults, defaults_scope, overlay_fields
from repro.obs.collector import ObsConfig
from repro.obs.manifest import build_manifest
from repro.obs.output import ObsAccumulator
from repro.service.baseline_pack import check_drift, load_pack
from repro.service.queue import Job, JobQueue
from repro.service.spec import SweepSpec, SweepUnit

__all__ = [
    "JobCancelled",
    "ExperimentService",
    "build_unit_defaults",
    "execute_spec",
]


class JobCancelled(ReproError):
    """Raised inside an executing job when its cancel flag is observed."""


def build_unit_defaults(
    unit: SweepUnit,
    limits,
    checkpoint_dir: Optional[pathlib.Path] = None,
    obs_config: Optional[ObsConfig] = None,
    obs_accumulator: Optional[ObsAccumulator] = None,
) -> RunDefaults:
    """Materialize one unit's overlays into a scoped :class:`RunDefaults`.

    The overlays are parsed by :func:`~repro.experiments.runner.overlay_fields`,
    the same function ``repro run`` feeds its flags through.
    """
    fields = overlay_fields(unit.overlay_dict)
    if limits.task_retries is not None:
        fields["task_retries"] = limits.task_retries
    return RunDefaults(
        workers=limits.workers,
        checkpoint_dir=checkpoint_dir,
        task_timeout=limits.task_timeout,
        obs=obs_config,
        obs_accumulator=obs_accumulator,
        **fields,
    )


ProgressFn = Callable[[str, str, int, int], None]


def _job_manifest(spec: SweepSpec, job_id: Optional[str]) -> dict:
    """The manifest for one job, carrying the spec fingerprint."""
    units = spec.expand()
    return build_manifest(
        master_seed=spec.seeds[0],
        scale=spec.scale_name,
        experiments=list(spec.experiments),
        options={
            "seeds": list(spec.seeds),
            "runs": spec.runs,
            "overlays": spec.to_dict()["overlays"],
            "workers": spec.limits.workers,
        },
        service={
            "job_id": job_id,
            "spec_name": spec.name,
            "spec_fingerprint": spec.fingerprint(),
            "units": [unit.label for unit in units],
        },
    )


def execute_spec(
    spec: SweepSpec,
    job_dir: Union[str, pathlib.Path],
    job_id: Optional[str] = None,
    progress: Optional[ProgressFn] = None,
    cancel_event: Optional[threading.Event] = None,
) -> Tuple[Dict[str, ExperimentReport], List[str]]:
    """Run every unit of ``spec`` under ``job_dir``; returns
    ``(label -> report, drift violations)``.

    Raises :class:`JobCancelled` as soon as ``cancel_event`` is observed
    set — between units, or between tasks via the progress callback.
    Completed tasks are already journalled under
    ``job_dir/checkpoints``, so re-executing the same spec in the same
    ``job_dir`` resumes instead of restarting.
    """
    job_dir = pathlib.Path(job_dir)
    job_dir.mkdir(parents=True, exist_ok=True)
    (job_dir / "spec.json").write_text(
        json.dumps(spec.to_dict(), indent=2, sort_keys=True) + "\n"
    )
    checkpoint_dir = job_dir / "checkpoints"

    obs_wanted = spec.outputs.metrics or spec.outputs.trace
    accumulator = ObsAccumulator() if obs_wanted else None
    obs_config = (
        ObsConfig(metrics=spec.outputs.metrics, events=spec.outputs.trace)
        if obs_wanted
        else None
    )

    def check_cancel() -> None:
        if cancel_event is not None and cancel_event.is_set():
            raise JobCancelled(
                f"job {job_id or spec.name} cancelled; completed tasks "
                "remain checkpointed for resume"
            )

    reports: Dict[str, ExperimentReport] = {}
    for unit in spec.expand():
        check_cancel()

        def unit_progress(scenario: str, done: int, total: int) -> None:
            check_cancel()
            if progress is not None:
                progress(unit.label, scenario, done, total)

        if accumulator is not None:
            accumulator.start_experiment(unit.label)
        defaults = build_unit_defaults(
            unit,
            spec.limits,
            checkpoint_dir=checkpoint_dir,
            obs_config=obs_config,
            obs_accumulator=accumulator,
        )
        experiment = get_experiment(unit.experiment_id)
        with defaults_scope(defaults):
            report = experiment.run(
                unit.scale(), master_seed=unit.seed, progress=unit_progress
            )
        unit_dir = job_dir / "reports" / unit.label
        save_report(report, unit_dir)
        if spec.outputs.svg:
            save_svg(report, unit_dir)
        reports[unit.label] = report

    manifest = _job_manifest(spec, job_id)
    (job_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    if accumulator is not None:
        if spec.outputs.metrics:
            accumulator.write_metrics(job_dir / "metrics.json", manifest)
        if spec.outputs.trace:
            accumulator.write_trace(job_dir / "trace.jsonl", manifest)

    violations: List[str] = []
    if spec.baseline_pack is not None:
        pack = load_pack(spec.baseline_pack)
        violations = check_drift(pack, reports)
    return reports, violations


class ExperimentService:
    """A worker pool draining one :class:`JobQueue` directory."""

    def __init__(
        self,
        directory: Union[str, pathlib.Path],
        workers: int = 1,
        poll_interval: float = 0.05,
        progress: Optional[ProgressFn] = None,
    ) -> None:
        if workers < 1:
            raise ExperimentError(f"service workers must be >= 1, got {workers}")
        self.directory = pathlib.Path(directory)
        self.queue = JobQueue(self.directory, recover=True)
        self.workers = workers
        self.poll_interval = poll_interval
        self.progress = progress
        self._cancel_events: Dict[str, threading.Event] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Submission-side API (also usable without a running pool)
    # ------------------------------------------------------------------

    def submit(self, spec: SweepSpec, priority: Optional[int] = None) -> Job:
        """Validate-free enqueue (the spec is already validated)."""
        with self._lock:
            return self.queue.submit(spec, priority)

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued job now; flag a running one to stop."""
        with self._lock:
            job = self.queue.request_cancel(job_id)
            event = self._cancel_events.get(job_id)
            if event is not None:
                event.set()
        return job

    def job_dir(self, job_id: str) -> pathlib.Path:
        return self.directory / "jobs" / job_id

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _run_job(self, job: Job) -> None:
        event = threading.Event()
        with self._lock:
            self._cancel_events[job.job_id] = event
            if job.cancel_requested:
                event.set()
        try:
            spec = job.sweep_spec()
            reports, violations = execute_spec(
                spec,
                self.job_dir(job.job_id),
                job_id=job.job_id,
                progress=self.progress,
                cancel_event=event,
            )
            with self._lock:
                if violations:
                    self.queue.transition(
                        job.job_id,
                        "failed",
                        error=(
                            f"baseline-pack drift: {len(violations)} "
                            "metric(s) outside tolerance"
                        ),
                        drift=violations,
                    )
                else:
                    self.queue.transition(job.job_id, "done")
        except JobCancelled as error:
            with self._lock:
                self.queue.transition(job.job_id, "cancelled", error=str(error))
        except Exception as error:  # noqa: BLE001 - job isolation boundary
            detail = f"{type(error).__name__}: {error}"
            if not isinstance(error, ReproError):
                detail += "\n" + traceback.format_exc(limit=5)
            with self._lock:
                self.queue.transition(job.job_id, "failed", error=detail)
        finally:
            with self._lock:
                self._cancel_events.pop(job.job_id, None)

    def serve(
        self,
        forever: bool = False,
        max_jobs: Optional[int] = None,
    ) -> Dict[str, int]:
        """Drain the queue with ``workers`` concurrent job threads.

        Returns the final state counts.  ``forever`` keeps polling the
        journal for new submissions (from other processes) after the
        queue drains; ``max_jobs`` bounds how many jobs this call will
        start (tests use it).
        """
        threads: Dict[str, threading.Thread] = {}
        started = 0
        try:
            while True:
                with self._lock:
                    self.queue.refresh()
                    # cross-process cancels: flag any running job whose
                    # journal shows a cancel record.
                    for job in self.queue.jobs():
                        if job.cancel_requested and job.job_id in self._cancel_events:
                            self._cancel_events[job.job_id].set()
                    # reap finished workers.
                    for job_id in [
                        job_id
                        for job_id, thread in threads.items()
                        if not thread.is_alive()
                    ]:
                        threads.pop(job_id).join()
                    # dispatch while there is capacity.
                    while len(threads) < self.workers and (
                        max_jobs is None or started < max_jobs
                    ):
                        job = self.queue.claim_next()
                        if job is None:
                            break
                        thread = threading.Thread(
                            target=self._run_job,
                            args=(job,),
                            name=f"repro-job-{job.job_id}",
                            daemon=True,
                        )
                        threads[job.job_id] = thread
                        started += 1
                        thread.start()
                    drained = not threads and (
                        not self.queue.pending()
                        or (max_jobs is not None and started >= max_jobs)
                    )
                if drained and not forever:
                    break
                time.sleep(self.poll_interval)
        finally:
            for thread in threads.values():
                thread.join()
        with self._lock:
            self.queue.refresh()
            return self.queue.counts()
