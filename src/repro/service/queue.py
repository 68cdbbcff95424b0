"""The async job queue: priority FIFO over a crash-safe JSONL journal.

A :class:`Job` is one submitted :class:`~repro.service.spec.SweepSpec`
plus its lifecycle state (``queued -> running -> done | failed |
cancelled``).  Every submission, state transition, and cancellation
request is appended to ``jobs.jsonl`` in the service directory and
flushed immediately, so the queue's full state is reconstructible after
a crash by replaying the journal — the same JSONL journal
(:func:`~repro.experiments.persistence.append_record` /
:func:`~repro.experiments.persistence.read_journal`) as the runner's
:class:`~repro.experiments.persistence.SweepCheckpoint`.  A torn
trailing line (the process died mid-write) is tolerated and dropped.

Jobs found ``running`` during recovery are re-queued: the process that
owned them is gone, and their sweeps resume from the per-job checkpoint
directory instead of restarting.  ``refresh()`` replays any records
other processes appended since the last read, so ``repro submit`` and
``repro cancel`` work against a live ``repro serve``.

Multiple service processes may drain one directory: claims are
serialized by per-job lock files under ``<directory>/locks/``.  A
server only transitions a job to ``running`` after atomically creating
``locks/<job_id>.lock`` (``O_CREAT | O_EXCL``); the file is removed
when the job reaches a terminal state, and stale locks left by a dead
server are swept during recovery alongside the ``running`` re-queue.
"""

from __future__ import annotations

import os
import pathlib
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from repro.errors import ExperimentError
from repro.experiments.persistence import append_record, read_journal
from repro.service.spec import SweepSpec, spec_from_dict

__all__ = ["JOB_STATES", "JOURNAL_SCHEMA", "Job", "JobQueue"]

#: bumped when the journal layout changes incompatibly.
JOURNAL_SCHEMA = 1

#: every legal job state, in lifecycle order.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: states a job can be re-queued from.
_REQUEUEABLE = ("failed", "cancelled")

#: states that end a job's lifecycle.
TERMINAL_STATES = ("done", "failed", "cancelled")


@dataclass
class Job:
    """One submitted sweep spec and its lifecycle state."""

    job_id: str
    seq: int
    spec: Dict[str, Any]
    fingerprint: str
    priority: int = 0
    state: str = "queued"
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    #: baseline-pack drift violations recorded at completion.
    drift: List[str] = field(default_factory=list)
    #: a cancel record exists; the executor stops at its next check.
    cancel_requested: bool = False

    @property
    def done(self) -> bool:
        return self.state in TERMINAL_STATES

    def sweep_spec(self) -> SweepSpec:
        """The validated spec object this job will execute."""
        return spec_from_dict(self.spec)

    def to_dict(self) -> dict:
        """The JSON-safe view ``repro jobs --json`` emits."""
        return {
            "job_id": self.job_id,
            "name": self.spec.get("name", ""),
            "state": self.state,
            "priority": self.priority,
            "fingerprint": self.fingerprint,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "drift": list(self.drift),
            "cancel_requested": self.cancel_requested,
        }


class JobQueue:
    """Priority FIFO of jobs, journalled to ``<directory>/jobs.jsonl``."""

    def __init__(
        self, directory: Union[str, pathlib.Path], recover: bool = False
    ) -> None:
        """Open (or create) the journal under ``directory``.

        ``recover=True`` is for the owning service process only: it
        re-queues jobs left ``running`` by a previous, dead server.
        Client processes (submit / cancel / status) must leave it off —
        a live server's running jobs are not orphans.
        """
        self.directory = pathlib.Path(directory)
        self.path = self.directory / "jobs.jsonl"
        self.locks_dir = self.directory / "locks"
        self._jobs: Dict[str, Job] = {}
        self._submit_count = 0
        if self.path.exists():
            self._replay()
            if recover:
                self._recover()
        else:
            self.directory.mkdir(parents=True, exist_ok=True)
            append_record(self.path, {"kind": "header", "schema": JOURNAL_SCHEMA})

    def _replay(self) -> None:
        """Rebuild the whole in-memory state from the journal."""
        __, records = read_journal(self.path, JOURNAL_SCHEMA, "job journal")
        jobs: Dict[str, Job] = {}
        submit_count = 0
        for record in records:
            kind = record.get("kind")
            if kind == "submit":
                submit_count += 1
                job = Job(
                    job_id=record["job_id"],
                    seq=submit_count,
                    spec=record["spec"],
                    fingerprint=record["fingerprint"],
                    priority=record.get("priority", 0),
                    submitted_at=record.get("at", 0.0),
                )
                jobs[job.job_id] = job
            elif kind == "state":
                job = jobs.get(record.get("job_id", ""))
                if job is None:
                    continue
                state = record.get("state")
                if state not in JOB_STATES:
                    continue
                job.state = state
                at = record.get("at")
                if state == "running":
                    job.started_at = at
                    job.error = None
                elif state in TERMINAL_STATES:
                    job.finished_at = at
                    job.error = record.get("error")
                    job.drift = list(record.get("drift", []))
                elif state == "queued":
                    # a requeue: clear the previous attempt's outcome.
                    job.error = None
                    job.drift = []
                    job.cancel_requested = False
            elif kind == "cancel":
                job = jobs.get(record.get("job_id", ""))
                if job is not None and not job.done:
                    job.cancel_requested = True
        self._jobs = jobs
        self._submit_count = submit_count

    # ------------------------------------------------------------------
    # Claim locks
    # ------------------------------------------------------------------

    def _lock_path(self, job_id: str) -> pathlib.Path:
        return self.locks_dir / f"{job_id}.lock"

    def _acquire_lock(self, job_id: str) -> bool:
        """Atomically create the job's lock file; False if held."""
        self.locks_dir.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(
                self._lock_path(job_id),
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
        except FileExistsError:
            return False
        try:
            os.write(fd, f"{os.getpid()}\n".encode())
        finally:
            os.close(fd)
        return True

    def _release_lock(self, job_id: str) -> None:
        try:
            self._lock_path(job_id).unlink()
        except FileNotFoundError:
            pass

    def _recover(self) -> None:
        """Re-queue jobs a dead process left ``running``.

        Their claim locks are stale — the owning process is gone — so
        they are swept here too; otherwise no live server could ever
        re-claim the recovered jobs.
        """
        for job in self._jobs.values():
            if job.state == "running":
                append_record(
                    self.path,
                    {
                        "kind": "state",
                        "job_id": job.job_id,
                        "state": "queued",
                        "at": time.time(),
                        "note": "recovered: owning process died mid-run",
                    }
                )
                job.state = "queued"
                job.error = None
                self._release_lock(job.job_id)

    def refresh(self) -> None:
        """Replay records other processes appended since the last read."""
        self._replay()

    # ------------------------------------------------------------------
    # Queue operations
    # ------------------------------------------------------------------

    def submit(self, spec: SweepSpec, priority: Optional[int] = None) -> Job:
        """Enqueue a validated spec; returns the journalled job."""
        self.refresh()
        fingerprint = spec.fingerprint()
        seq = self._submit_count + 1
        job_id = f"j{seq:04d}-{fingerprint[:8]}"
        job = Job(
            job_id=job_id,
            seq=seq,
            spec=spec.to_dict(),
            fingerprint=fingerprint,
            priority=spec.priority if priority is None else priority,
            submitted_at=time.time(),
        )
        append_record(
            self.path,
            {
                "kind": "submit",
                "job_id": job.job_id,
                "spec": job.spec,
                "fingerprint": fingerprint,
                "priority": job.priority,
                "at": job.submitted_at,
            }
        )
        self._jobs[job.job_id] = job
        self._submit_count = seq
        return job

    def get(self, job_id: str) -> Job:
        """Look up a job by id; raise with the known ids listed."""
        try:
            return self._jobs[job_id]
        except KeyError:
            known = ", ".join(sorted(self._jobs)) or "(none)"
            raise ExperimentError(
                f"unknown job {job_id!r}; known jobs: {known}"
            ) from None

    def jobs(self) -> List[Job]:
        """Every job, in submission order."""
        return sorted(self._jobs.values(), key=lambda job: job.seq)

    def pending(self) -> List[Job]:
        """Queued jobs in claim order: priority desc, then FIFO."""
        queued = [
            job
            for job in self._jobs.values()
            if job.state == "queued" and not job.cancel_requested
        ]
        return sorted(queued, key=lambda job: (-job.priority, job.seq))

    def claim_next(self) -> Optional[Job]:
        """Lock and mark the best claimable queued job ``running``.

        Candidates are tried in claim order; one whose lock file is held
        by another server is skipped.  After winning a lock the journal
        is re-read — the previous holder may have finished the job since
        our last refresh — and the claim is abandoned (lock released)
        unless the job is still queued.
        """
        for candidate in self.pending():
            if not self._acquire_lock(candidate.job_id):
                continue
            self.refresh()
            job = self._jobs.get(candidate.job_id)
            if job is None or job.state != "queued" or job.cancel_requested:
                self._release_lock(candidate.job_id)
                continue
            self.transition(job.job_id, "running")
            return job
        return None

    def transition(
        self,
        job_id: str,
        state: str,
        error: Optional[str] = None,
        drift: Optional[List[str]] = None,
    ) -> Job:
        """Journal and apply one lifecycle transition."""
        if state not in JOB_STATES:
            raise ExperimentError(f"unknown job state {state!r}")
        job = self.get(job_id)
        at = time.time()
        record = {"kind": "state", "job_id": job_id, "state": state, "at": at}
        if error is not None:
            record["error"] = error
        if drift:
            record["drift"] = list(drift)
        append_record(self.path, record)
        job.state = state
        if state == "running":
            job.started_at = at
            job.error = None
        elif state in TERMINAL_STATES:
            job.finished_at = at
            job.error = error
            job.drift = list(drift or [])
            self._release_lock(job_id)
        elif state == "queued":
            job.error = None
            job.drift = []
            job.cancel_requested = False
        return job

    def request_cancel(self, job_id: str) -> Job:
        """Cancel a queued job now; flag a running one to stop.

        A queued job goes straight to ``cancelled``.  A running job gets
        a journal flag its executor observes at the next task boundary;
        completed work stays checkpointed, so a later requeue resumes
        rather than restarts.
        """
        job = self.get(job_id)
        if job.done:
            raise ExperimentError(
                f"job {job_id} already finished ({job.state}); cannot cancel"
            )
        if job.state == "queued":
            return self.transition(job_id, "cancelled", error="cancelled before start")
        append_record(self.path, {"kind": "cancel", "job_id": job_id, "at": time.time()})
        job.cancel_requested = True
        return job

    def requeue(self, job_id: str) -> Job:
        """Put a failed or cancelled job back in the queue.

        Its sweeps resume from the per-job checkpoint directory: every
        (variant, run) the previous attempt completed is served from the
        journal instead of re-simulated.
        """
        job = self.get(job_id)
        if job.state not in _REQUEUEABLE:
            raise ExperimentError(
                f"job {job_id} is {job.state}; only failed or cancelled "
                "jobs can be requeued"
            )
        return self.transition(job_id, "queued")

    def counts(self) -> Dict[str, int]:
        """How many jobs sit in each state."""
        counts = {state: 0 for state in JOB_STATES}
        for job in self._jobs.values():
            counts[job.state] += 1
        return counts

    def idle(self) -> bool:
        """True when nothing is queued or running."""
        return all(job.done for job in self._jobs.values())
