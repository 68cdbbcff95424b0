"""The repository's benchmark of record: end-to-end sweep cost per workload.

Run from the repository root::

    python3 perfbench/run.py --workload mapping_paper --seed 2010 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics (``points_per_ref_s``,
``setup_s``, ``peak_rss_mb``); ``--trace 1`` reports the per-layer
metrics of a traced run plus the tracing overhead.  Every measurement
runs in a fresh interpreter (``perfbench/child.py``), so module-level
state such as the runner's static-topology cache never leaks between
workloads and peak memory is the workload's own.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import speedprobe

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("mapping_paper", "manet_arena", "quick_checked")
#: setup probes per run; ``setup_s`` is their median.
SETUP_PROBES = 5
#: every child must have finished this long after the run started.
DEADLINE_S = 170.0

END_TO_END_UNITS = {"points_per_ref_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


class ChildFailed(RuntimeError):
    """A benchmark child exited badly or printed no result."""


def child(deadline: float, mode: str, *arguments: str) -> dict:
    """Run one ``perfbench.child`` process; return its JSON result."""
    command = [sys.executable, "-m", "perfbench.child", mode, *arguments]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed(f"no time left for {mode}")
    try:
        completed = subprocess.run(
            command,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            timeout=remaining,
            check=False,
            text=True,
        )
    except subprocess.TimeoutExpired as error:
        raise ChildFailed(f"{mode} did not finish within {remaining:.0f}s") from error
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} exited with code {completed.returncode}")
    return json.loads(lines[-1])


def throughput(measured: dict) -> float:
    """Points completed per reference second over the whole run.

    The program runs on one thread, so on an idle core its CPU seconds
    are its wall seconds; unlike wall seconds, they leave out the time a
    shared host's scheduler gives the core to someone else.  Scaling them
    by the speed probe that ran beside the program on the same CPU
    (``perfbench/speedprobe.py``) takes out the spells in which the core
    itself runs slow.
    """
    seconds = sum(measured["cpus"]) * speedprobe.scale(measured["probe"])
    return sum(measured["points"]) / seconds


def setup_seconds(deadline: float, common: list) -> float:
    """Median set-up CPU seconds over the probes, in reference seconds.

    The set-up children run on the CPU this process is pinned to, with
    the speed probe beside them.
    """
    probe = speedprobe.start(ROOT)
    try:
        setups = [
            child(deadline, "setup", *common)["setup_cpu_s"] for __ in range(SETUP_PROBES)
        ]
    finally:
        samples = speedprobe.stop(probe)
    return statistics.median(setups) * speedprobe.scale(samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2010)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: src/repro is missing; run from a full checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    measure = common + ["--seconds", str(args.seconds)]
    try:
        if args.trace:
            runs = [
                child(deadline, "measure", *measure, "--trace", "0"),
                child(deadline, "measure", *measure, "--trace", "1"),
            ]
            untraced, traced = (throughput(run) for run in runs)
            metrics = dict(runs[1]["layers"])
            metrics["trace.points_per_ref_s"] = traced
            metrics["trace.untraced_points_per_ref_s"] = untraced
            metrics["trace.overhead_x"] = untraced / traced
            units = runs[1]["units"]
        else:
            setup_s = setup_seconds(deadline, common)
            runs = [child(deadline, "measure", *measure, "--trace", "0")]
            metrics = {
                "points_per_ref_s": throughput(runs[0]),
                "setup_s": setup_s,
                "peak_rss_mb": runs[0]["rss_mb"],
            }
            units = END_TO_END_UNITS
    except (ChildFailed, RuntimeError, subprocess.TimeoutExpired) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    attempted = sum(sum(run["points"]) for run in runs)
    failed = 0
    for run in runs:
        failed += len(run["failures"])
        for key, why in sorted(run["failures"].items()):
            print(f"FAILED {key}: {why}")
        rates = ", ".join(f"{p / t:.4g}" for p, t in zip(run["points"], run["cpus"]))
        print(f"repetitions: {len(run['cpus'])}, points per CPU second each: {rates}")
        points = sum(run["points"])
        print(f"points per wall second: {points / sum(run['walls']):.4g}, "
              f"per CPU second: {points / sum(run['cpus']):.4g}; "
              f"reference seconds per CPU second: {speedprobe.scale(run['probe']):.4g} "
              f"({len(run['probe'])} probe samples)")
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    referenced = sum(run["referenced_reps"] for run in runs)
    print(f"attempted {attempted} points, {failed} failed, "
          f"{referenced} repetition(s) checked against references")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
