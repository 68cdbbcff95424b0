"""Command-line interface.

Usage::

    repro list                         # show every registered experiment
    repro list --json                  # machine-readable discovery
    repro run fig1                     # run at quick scale (seconds)
    repro run fig7 --paper-scale       # paper-scale parameters, 40 runs
    repro run all --paper-scale        # regenerate everything
    repro run fig3 --seed 7 --no-plot  # reseed / table-only output
    repro run fig7 --json-dir results/json --svg-dir results/svg
    repro report results/json          # re-render archived reports

Service layer (sweep specs through the async job queue)::

    repro submit examples/specs/quick_smoke.json   # enqueue a sweep spec
    repro jobs --json                  # inspect the queue
    repro serve --workers 2            # drain the queue (resumable)
    repro cancel j0001-94e0f1ee        # cancel queued now / running soon
    repro export j0001-94e0f1ee --out bundle.tar.gz
    repro calibrate spec.json --out baselines/pack.json

``python -m repro …`` is equivalent.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from repro.errors import ReproError
from repro.experiments import PAPER, QUICK, get_experiment, list_experiments
from repro.experiments.config import DEFAULT_MASTER_SEED

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Mobile Software Agents for Wireless Network "
            "Mapping and Dynamic Routing'"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    listing = commands.add_parser("list", help="list registered experiments")
    listing.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable metadata (id, title, scenario, tiers)",
    )

    run = commands.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="experiment id (fig1..fig11, ext1, abl1..) or 'all'")
    run.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the paper's node counts and 40 runs (minutes, not seconds)",
    )
    run.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_MASTER_SEED,
        help=f"master seed (default {DEFAULT_MASTER_SEED})",
    )
    run.add_argument("--no-plot", action="store_true", help="omit ASCII charts")
    run.add_argument("--quiet", action="store_true", help="suppress progress lines")
    run.add_argument(
        "--json-dir",
        metavar="DIR",
        help="also write each report as DIR/<id>.json (re-renderable later)",
    )
    run.add_argument(
        "--svg-dir",
        metavar="DIR",
        help="also write each figure's curves as DIR/<id>.svg",
    )
    run.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="fan (variant, run) pairs over N processes (results identical)",
    )
    run.add_argument(
        "--runs",
        type=int,
        default=None,
        metavar="N",
        help="override the number of seeded repetitions at this scale",
    )
    overlays = run.add_argument_group(
        "overlays",
        "applied to every variant (the keys of a sweep spec's 'overlays')",
    )
    overlays.add_argument(
        "--faults",
        metavar="PLAN",
        help=(
            "inject a fault plan into every variant, e.g. "
            "'crash@20:3;recover@40:3;policy=respawn' (see repro.faults.plan)"
        ),
    )
    overlays.add_argument(
        "--loss",
        metavar="SPEC",
        help=(
            "run every variant over a lossy channel: a bare probability "
            "('0.2') or 'fixed=0.1,distance=0.3,battery=0.2,retries=4,"
            "backoff=2' (see repro.experiments.runner.parse_spec)"
        ),
    )
    overlays.add_argument(
        "--traffic",
        metavar="SPEC",
        help=(
            "attach a payload workload to every variant: a bare arrival "
            "rate ('0.5') or 'rate=0.5,router=epidemic,cap=16,ttl=60,"
            "policy=drop-oldest' (see repro.experiments.runner.parse_spec)"
        ),
    )
    overlays.add_argument(
        "--adversary",
        metavar="SPEC",
        help=(
            "inject a seeded adversary into every variant: a bare gray-node "
            "fraction ('0.2') or 'gray=0.2,rate=0.9,corrupt=2,flap=1,"
            "start=10' (see repro.experiments.runner.parse_spec)"
        ),
    )
    overlays.add_argument(
        "--route-ttl",
        type=int,
        default=None,
        metavar="STEPS",
        help="override the routing-table entry TTL in every routing variant",
    )
    overlays.add_argument(
        "--quarantine",
        action="store_true",
        help=(
            "enable the defense plane in every variant: suspicion/quarantine "
            "health monitoring plus routing-table write guards"
        ),
    )
    overlays.add_argument(
        "--check-invariants",
        action="store_true",
        # unset, not False: without the flag, REPRO_CHECK_INVARIANTS decides
        default=None,
        help="validate cross-layer invariants after every step (fail fast)",
    )
    run.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help=(
            "journal completed (variant, run) results under DIR; re-running "
            "the same command resumes an interrupted sweep"
        ),
    )
    run.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-task deadline for pooled runs; overdue tasks are retried "
            "(also detects crashed workers)"
        ),
    )
    run.add_argument(
        "--task-retries",
        type=int,
        default=None,
        metavar="N",
        help="how many times a failed or overdue task is retried (default 1)",
    )
    run.add_argument(
        "--metrics-out",
        metavar="FILE",
        help=(
            "write merged run counters (overhead, faults, channel, meetings) "
            "plus the run manifest as one JSON file"
        ),
    )
    run.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write schema-versioned simulation events as JSONL (one per line)",
    )
    run.add_argument(
        "--profile",
        action="store_true",
        help="time engine phases and hooks per step; print percentile tables",
    )

    report = commands.add_parser(
        "report", help="re-render archived JSON reports without re-running"
    )
    report.add_argument(
        "path", help="a report JSON file or a directory of them (from --json-dir)"
    )
    report.add_argument("--no-plot", action="store_true", help="omit ASCII charts")

    def service_dir_arg(sub) -> None:
        sub.add_argument(
            "--service-dir",
            metavar="DIR",
            default=".repro-service",
            help="service state directory (default .repro-service)",
        )

    submit = commands.add_parser(
        "submit", help="enqueue a sweep spec file (JSON or YAML) as a job"
    )
    submit.add_argument("spec", help="path to the sweep spec")
    service_dir_arg(submit)
    submit.add_argument(
        "--priority",
        type=int,
        default=None,
        metavar="N",
        help="override the spec's priority (higher runs first)",
    )

    jobs = commands.add_parser("jobs", help="show every job in the queue")
    service_dir_arg(jobs)
    jobs.add_argument(
        "--json", action="store_true", help="emit machine-readable job records"
    )

    serve = commands.add_parser(
        "serve", help="drain the job queue with a bounded worker pool"
    )
    service_dir_arg(serve)
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="how many jobs run concurrently (default 1)",
    )
    serve.add_argument(
        "--forever",
        action="store_true",
        help="keep polling for new submissions after the queue drains",
    )
    serve.add_argument("--quiet", action="store_true", help="suppress progress lines")

    cancel = commands.add_parser(
        "cancel", help="cancel a queued job now, or flag a running one to stop"
    )
    cancel.add_argument("job_id", help="job id from 'repro submit' / 'repro jobs'")
    service_dir_arg(cancel)

    requeue = commands.add_parser(
        "requeue", help="put a failed or cancelled job back in the queue"
    )
    requeue.add_argument("job_id", help="job id from 'repro jobs'")
    service_dir_arg(requeue)

    export = commands.add_parser(
        "export", help="package a finished job into a reproducible bundle"
    )
    export.add_argument("job_id", help="job id of a completed job")
    service_dir_arg(export)
    export.add_argument(
        "--out",
        required=True,
        metavar="PATH",
        help="bundle destination (directory, or .tar.gz/.tgz for a tarball)",
    )

    calibrate = commands.add_parser(
        "calibrate",
        help="run a spec directly and write its baseline pack (expected metrics)",
    )
    calibrate.add_argument("spec", help="path to the sweep spec")
    calibrate.add_argument(
        "--out", required=True, metavar="PACK", help="baseline pack JSON to write"
    )
    calibrate.add_argument(
        "--tolerance",
        type=float,
        default=None,
        metavar="T",
        help="relative drift tolerance recorded in the pack (default 0.05)",
    )
    calibrate.add_argument(
        "--quiet", action="store_true", help="suppress progress lines"
    )
    return parser


def _progress_printer(quiet: bool):
    if quiet:
        return None

    def progress(scenario: str, done: int, total: int) -> None:
        print(f"  [{scenario}] run {done}/{total}", file=sys.stderr, flush=True)

    return progress


def _command_list(args: argparse.Namespace) -> int:
    if getattr(args, "json", False):
        import json

        from repro.experiments.registry import experiments_metadata

        print(json.dumps(experiments_metadata(), indent=2, sort_keys=True))
        return 0
    for experiment in list_experiments():
        print(f"{experiment.experiment_id:6s}  [{experiment.scenario}]  {experiment.title}")
    return 0


def _command_run(args: argparse.Namespace) -> int:
    import dataclasses
    import pathlib

    from repro.experiments import runner

    scale = PAPER if args.paper_scale else QUICK
    if args.runs is not None:
        if args.runs < 1:
            raise ReproError(f"--runs must be >= 1, got {args.runs}")
        scale = dataclasses.replace(scale, runs=args.runs)
    if args.experiment == "all":
        ids = [e.experiment_id for e in list_experiments()]
    else:
        ids = [args.experiment]
    overlays = {key: getattr(args, key) for key in runner.OVERLAY_KEYS}
    fields = runner.overlay_fields(overlays)
    if args.checkpoint_dir:
        fields["checkpoint_dir"] = pathlib.Path(args.checkpoint_dir)
    if args.task_retries is not None:
        fields["task_retries"] = args.task_retries

    accumulator = None
    if args.metrics_out or args.trace_out or args.profile:
        from repro.obs import ObsAccumulator, ObsConfig

        fields["obs"] = ObsConfig(
            metrics=bool(args.metrics_out),
            events=bool(args.trace_out),
            profile=bool(args.profile),
        )
        accumulator = fields["obs_accumulator"] = ObsAccumulator()
    defaults = runner.RunDefaults(
        workers=args.workers, task_timeout=args.task_timeout, **fields
    )

    progress = _progress_printer(args.quiet)
    with runner.defaults_scope(defaults):
        for experiment_id in ids:
            experiment = get_experiment(experiment_id)
            if accumulator is not None:
                accumulator.start_experiment(experiment_id)
            started = time.perf_counter()
            report = experiment.run(scale, master_seed=args.seed, progress=progress)
            elapsed = time.perf_counter() - started
            print(report.render(plots=not args.no_plot))
            print(f"(scale={scale.name}, seed={args.seed}, wall time {elapsed:.1f}s)")
            if args.json_dir:
                from repro.experiments.persistence import save_report

                print(f"wrote {save_report(report, args.json_dir)}")
            if args.svg_dir:
                from repro.experiments.persistence import save_svg

                svg_path = save_svg(report, args.svg_dir)
                if svg_path is not None:
                    print(f"wrote {svg_path}")
            if args.profile and accumulator is not None:
                print(accumulator.profile_text(experiment_id))
            print()

    if accumulator is not None:
        from repro.obs import build_manifest

        manifest = build_manifest(
            master_seed=args.seed,
            scale=scale.name,
            experiments=ids,
            options={"runs": scale.runs, "workers": args.workers, **overlays},
        )
        if args.metrics_out:
            path = accumulator.write_metrics(
                args.metrics_out, manifest, include_profile=args.profile
            )
            print(f"wrote {path}")
        if args.trace_out:
            path = accumulator.write_trace(args.trace_out, manifest)
            print(f"wrote {path}")
    return 0


def _command_report(args: argparse.Namespace) -> int:
    from repro.experiments.persistence import load_report, report_paths

    paths = report_paths(args.path)
    if not paths:
        print(f"error: no reports found under {args.path}", file=sys.stderr)
        return 1
    for path in paths:
        print(load_report(path).render(plots=not args.no_plot))
        print()
    return 0


def _command_submit(args: argparse.Namespace) -> int:
    from repro.service import JobQueue, load_spec

    spec = load_spec(args.spec)
    job = JobQueue(args.service_dir).submit(spec, args.priority)
    print(
        f"queued {spec.name!r} as {job.job_id} "
        f"(fingerprint {job.fingerprint}, priority {job.priority}, "
        f"{len(spec.expand())} unit(s))",
        file=sys.stderr,
    )
    print(job.job_id)
    return 0


def _command_jobs(args: argparse.Namespace) -> int:
    from repro.service import JobQueue

    queue = JobQueue(args.service_dir)
    jobs = queue.jobs()
    if args.json:
        import json

        print(json.dumps([job.to_dict() for job in jobs], indent=2, sort_keys=True))
        return 0
    if not jobs:
        print("no jobs submitted yet")
        return 0
    header = f"{'job id':18s}  {'state':10s}  {'prio':>4s}  {'name':24s}  error"
    print(header)
    print("-" * len(header))
    for job in jobs:
        flag = " (cancel requested)" if job.cancel_requested else ""
        error = (job.error or "")[:60]
        print(
            f"{job.job_id:18s}  {job.state + flag:10s}  {job.priority:4d}  "
            f"{job.spec.get('name', ''):24s}  {error}"
        )
    return 0


def _service_progress(quiet: bool):
    if quiet:
        return None

    def progress(label: str, scenario: str, done: int, total: int) -> None:
        print(f"  [{label}/{scenario}] run {done}/{total}", file=sys.stderr, flush=True)

    return progress


def _command_serve(args: argparse.Namespace) -> int:
    from repro.service import ExperimentService

    service = ExperimentService(
        args.service_dir,
        workers=args.workers,
        progress=_service_progress(args.quiet),
    )
    try:
        counts = service.serve(forever=args.forever)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        print("interrupted; running jobs were journalled and will resume",
              file=sys.stderr)
        return 130
    summary = ", ".join(f"{state}={n}" for state, n in counts.items() if n)
    print(f"queue drained: {summary or 'empty'}")
    failed = [job for job in service.queue.jobs() if job.state == "failed"]
    for job in failed:
        print(f"  {job.job_id} failed: {job.error}", file=sys.stderr)
        for violation in job.drift:
            print(f"    drift: {violation}", file=sys.stderr)
    return 1 if failed else 0


def _command_cancel(args: argparse.Namespace) -> int:
    from repro.service import JobQueue

    job = JobQueue(args.service_dir).request_cancel(args.job_id)
    if job.state == "cancelled":
        print(f"{job.job_id} cancelled")
    else:
        print(f"{job.job_id} is running; flagged to stop at the next task boundary")
    return 0


def _command_requeue(args: argparse.Namespace) -> int:
    from repro.service import JobQueue

    job = JobQueue(args.service_dir).requeue(args.job_id)
    print(f"{job.job_id} requeued (will resume from its checkpoints)")
    return 0


def _command_export(args: argparse.Namespace) -> int:
    import pathlib

    from repro.service import JobQueue, export_bundle

    queue = JobQueue(args.service_dir)
    job = queue.get(args.job_id)
    if job.state != "done":
        print(
            f"warning: job {job.job_id} is {job.state}; bundling what exists",
            file=sys.stderr,
        )
    job_dir = pathlib.Path(args.service_dir) / "jobs" / args.job_id
    path = export_bundle(job_dir, args.out)
    print(f"wrote {path}")
    return 0


def _command_calibrate(args: argparse.Namespace) -> int:
    import dataclasses
    import tempfile

    from repro.service import build_pack, execute_spec, load_spec, save_pack
    from repro.service.baseline_pack import DEFAULT_TOLERANCE

    spec = load_spec(args.spec)
    tolerance = DEFAULT_TOLERANCE if args.tolerance is None else args.tolerance
    with tempfile.TemporaryDirectory(prefix="repro-calibrate-") as scratch:
        # Calibration *produces* the pack the spec may reference, so the
        # drift check is skipped for this run.
        reports, _ = execute_spec(
            dataclasses.replace(spec, baseline_pack=None),
            scratch,
            progress=_service_progress(args.quiet),
        )
    pack = build_pack(spec.name, spec.fingerprint(), reports, tolerance)
    path = save_pack(pack, args.out)
    print(f"wrote {path} ({len(reports)} unit(s), tolerance {tolerance:g})")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "list": _command_list,
        "run": _command_run,
        "report": _command_report,
        "submit": _command_submit,
        "jobs": _command_jobs,
        "serve": _command_serve,
        "cancel": _command_cancel,
        "requeue": _command_requeue,
        "export": _command_export,
        "calibrate": _command_calibrate,
    }
    try:
        handler = handlers.get(args.command)
        if handler is not None:
            return handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # e.g. `repro list --json | head`
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    parser.error(f"unknown command {args.command!r}")
    return 2  # pragma: no cover - parser.error raises


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
