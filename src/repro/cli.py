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

Sweep specs (experiments x seeds x overlay grids as one JSON/YAML file)::

    repro run examples/specs/quick_smoke.json --json-dir out   # out/<unit label>/;
                                                               # exit 1 on pack drift
    repro calibrate spec.json --out baselines/pack.json        # its drift envelope

``python -m repro …`` is equivalent.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.experiments import (
    PAPER,
    QUICK,
    ExperimentReport,
    get_experiment,
    list_experiments,
)
from repro.experiments.config import DEFAULT_MASTER_SEED
from repro.experiments.runner import OVERLAY_KEYS
from repro.experiments.spec import SweepSpec, SweepUnit, load_spec

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

    run = commands.add_parser(
        "run", help="run one experiment, 'all', or a sweep spec file"
    )
    run.add_argument(
        "experiment",
        help=(
            "experiment id (fig1..fig11, ext1, abl1..), 'all', or a sweep "
            "spec file (.json/.yaml/.yml) naming experiments, scale, runs, "
            "seeds and overlays"
        ),
    )
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
        help=(
            "also write each report as DIR/<id>.json, or DIR/<unit label>/"
            "<id>.json for a spec (re-renderable later)"
        ),
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

    calibrate = commands.add_parser(
        "calibrate",
        help="run a sweep spec and write its baseline pack (expected metrics)",
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


def _progress_printer(quiet: bool, label: str):
    """A progress callback printing ``[label] [scenario] run done/total``."""
    if quiet:
        return None

    def progress(scenario: str, done: int, total: int) -> None:
        print(f"  [{label}] [{scenario}] run {done}/{total}", file=sys.stderr, flush=True)

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


#: the ``repro run`` flags a sweep spec owns, by their argparse dest.
_SPEC_OWNED = ("paper_scale", "runs", "seed") + OVERLAY_KEYS


def _sweep_units(
    args: argparse.Namespace,
) -> Tuple[Optional[SweepSpec], List[SweepUnit]]:
    """The spec ``args.experiment`` names (or ``None``) and its units.

    A flag run's units are labelled by experiment id; a spec owns its
    experiments, scale, runs, seeds and overlays, so setting one of those
    flags beside it is an error.
    """
    if pathlib.Path(args.experiment).suffix.lower() in (".json", ".yaml", ".yml"):
        defaults = vars(build_parser().parse_args(["run", args.experiment]))
        for dest in _SPEC_OWNED:
            if getattr(args, dest) != defaults[dest]:
                flag = "--" + dest.replace("_", "-")
                raise ReproError(
                    f"{flag} cannot be combined with a sweep spec; "
                    "set it in the spec instead"
                )
        spec = load_spec(args.experiment)
        return spec, spec.expand()
    if args.runs is not None and args.runs < 1:
        raise ReproError(f"--runs must be >= 1, got {args.runs}")
    if args.experiment == "all":
        ids = [e.experiment_id for e in list_experiments()]
    else:
        ids = [get_experiment(args.experiment).experiment_id]
    overlays = tuple((key, getattr(args, key)) for key in OVERLAY_KEYS)
    scale = PAPER if args.paper_scale else QUICK
    units = [
        SweepUnit(experiment_id, scale, args.runs, args.seed, overlays, experiment_id)
        for experiment_id in ids
    ]
    return None, units


def _run_sweep(
    args: argparse.Namespace, spec: Optional[SweepSpec], units: List[SweepUnit]
) -> Dict[str, ExperimentReport]:
    """Run every unit under the execution flags; returns label -> report.

    Each unit runs in its own ``defaults_scope`` built from its overlays
    plus the execution flags.  A spec's units save into
    ``DIR/<unit label>/``; a flag run's save into ``DIR`` itself.
    """
    from repro.experiments import runner
    from repro.experiments.persistence import save_report, save_svg

    execution = {"workers": args.workers, "task_timeout": args.task_timeout}
    if args.checkpoint_dir:
        execution["checkpoint_dir"] = pathlib.Path(args.checkpoint_dir)
    if args.task_retries is not None:
        execution["task_retries"] = args.task_retries
    accumulator = None
    if args.metrics_out or args.trace_out or args.profile:
        from repro.obs import ObsAccumulator, ObsConfig

        execution["obs"] = ObsConfig(
            metrics=bool(args.metrics_out),
            events=bool(args.trace_out),
            profile=bool(args.profile),
        )
        accumulator = execution["obs_accumulator"] = ObsAccumulator()

    reports: Dict[str, ExperimentReport] = {}
    for unit in units:
        defaults = runner.RunDefaults(
            **execution, **runner.overlay_fields(unit.overlay_dict)
        )
        if accumulator is not None:
            accumulator.start_experiment(unit.label)
        scale = unit.scale()
        started = time.perf_counter()
        with runner.defaults_scope(defaults):
            report = get_experiment(unit.experiment_id).run(
                scale,
                master_seed=unit.seed,
                progress=_progress_printer(args.quiet, unit.label),
            )
        elapsed = time.perf_counter() - started
        reports[unit.label] = report
        print(report.render(plots=not args.no_plot))
        print(f"(scale={scale.name}, seed={unit.seed}, wall time {elapsed:.1f}s)")
        for directory, save in ((args.json_dir, save_report), (args.svg_dir, save_svg)):
            if directory:
                path = save(report, pathlib.Path(directory, unit.label) if spec else directory)
                if path is not None:  # save_svg skips table-only reports
                    print(f"wrote {path}")
        if args.profile:
            print(accumulator.profile_text(unit.label))
        print()

    if accumulator is not None:
        from repro.obs import build_manifest

        first = units[0]
        scale = first.scale()
        options = {"runs": scale.runs, "workers": args.workers}
        if spec is None:
            options.update(first.overlays)
        else:
            options.update(
                spec=spec.name,
                spec_fingerprint=spec.fingerprint(),
                seeds=list(spec.seeds),
            )
        manifest = build_manifest(
            master_seed=first.seed,
            scale=scale.name,
            experiments=list(dict.fromkeys(unit.experiment_id for unit in units)),
            options=options,
        )
        if args.metrics_out:
            path = accumulator.write_metrics(
                args.metrics_out, manifest, include_profile=args.profile
            )
            print(f"wrote {path}")
        if args.trace_out:
            path = accumulator.write_trace(args.trace_out, manifest)
            print(f"wrote {path}")
    return reports


def _command_run(args: argparse.Namespace) -> int:
    from repro.experiments.baseline_pack import check_drift, load_pack

    spec, units = _sweep_units(args)
    reports = _run_sweep(args, spec, units)
    if spec is None or spec.baseline_pack is None:
        return 0
    violations = check_drift(load_pack(spec.baseline_pack), spec.fingerprint(), reports)
    for violation in violations:
        print(f"drift: {violation}", file=sys.stderr)
    return 1 if violations else 0


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


def _command_calibrate(args: argparse.Namespace) -> int:
    from repro.experiments.baseline_pack import DEFAULT_TOLERANCE, build_pack, save_pack

    # Calibration runs the spec as `repro run SPEC --no-plot` would, but
    # skips the drift check: it produces the pack the spec may name.
    run_args = build_parser().parse_args(
        ["run", args.spec, "--no-plot"] + (["--quiet"] if args.quiet else [])
    )
    spec, units = _sweep_units(run_args)
    if spec is None:
        raise ReproError(f"calibrate takes a sweep spec file, got {args.spec!r}")
    reports = _run_sweep(run_args, spec, units)
    tolerance = DEFAULT_TOLERANCE if args.tolerance is None else args.tolerance
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
        "calibrate": _command_calibrate,
    }
    try:
        handler = handlers.get(args.command)
        if handler is not None:
            return handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        checkpoint_dir = getattr(args, "checkpoint_dir", None)
        if checkpoint_dir:
            note = (
                f"completed tasks are journalled under {checkpoint_dir}; "
                "re-run the same command to resume"
            )
        else:
            note = "pass --checkpoint-dir DIR to journal completed tasks for a resume"
        print(f"interrupted: {note}", file=sys.stderr)
        return 130
    except BrokenPipeError:  # e.g. `repro list --json | head`
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    parser.error(f"unknown command {args.command!r}")
    return 2  # pragma: no cover - parser.error raises


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
