"""One fresh-interpreter benchmark process; ``run.py`` starts these.

``python3 -m perfbench.child setup   --workload W --seed N``
    times one workload start in CPU seconds, from before ``import repro``
    to the first simulated step, and prints ``{"setup_cpu_s": ...}``.

``python3 -m perfbench.child measure --workload W --seed N --seconds S --trace 0|1``
    pins itself to one CPU, starts the speed probe
    (``perfbench/speedprobe.py``) on the same CPU, runs seeded
    repetitions of the workload until ``S`` seconds have passed, checks
    every point, and prints one JSON line with each repetition's wall and
    CPU seconds and point count, the probe's samples, the failures and
    peak resident memory — plus, traced, every per-layer metric.
"""

from __future__ import annotations

from time import perf_counter, process_time

STARTED = process_time()

import argparse  # noqa: E402 - the clock starts before any import
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".perfbench")


def _import_workloads():
    """Import the program from this checkout's ``src`` (never elsewhere)."""
    sys.path.insert(0, SOURCE)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SOURCE + os.sep):
        raise SystemExit(f"repro imported from {repro.__file__}, not {SOURCE}")
    from perfbench import workloads

    return workloads


class _FirstStep(BaseException):
    """Ends a setup probe at the first simulated step.

    A ``BaseException`` so the runner's per-task retry (``except
    Exception``) lets it through.
    """


def setup(workload_name: str, seed: int) -> dict:
    workloads = _import_workloads()
    from repro.sim.engine import TimeStepEngine

    def first_step(engine):
        raise _FirstStep(process_time())

    TimeStepEngine.step = first_step
    workload = workloads.WORKLOADS[workload_name]
    try:
        workloads.run_sweep(workload.sweeps[0], workloads.rep_seed(seed, 0))
    except _FirstStep as reached:
        return {"setup_cpu_s": reached.args[0] - STARTED}
    raise RuntimeError("the sweep finished without simulating a step")


def _references(workload_name: str, seed: int):
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle).get(workload_name, {}).get(str(seed), [])


def measure(workload_name: str, seed: int, seconds: float, traced: bool) -> dict:
    workloads = _import_workloads()
    from perfbench import speedprobe
    from repro.errors import ExperimentError

    workload = workloads.WORKLOADS[workload_name]
    references = _references(workload_name, seed)
    tracer = None
    if traced:
        from perfbench import layers
        from perfbench.tracing import Tracer

        tracer = Tracer()
        layers.install(tracer)
    walls, cpus, counts, failures = [], [], [], {}
    first_points = None
    rss_mb = 0.0
    probe = speedprobe.start(ROOT)
    try:
        started = perf_counter()
        rep = 0
        while rep == 0 or perf_counter() - started < seconds:
            rep_started = perf_counter()
            rep_cpu = process_time()
            try:
                points = workloads.run_rep(workload, workloads.rep_seed(seed, rep))
            except ExperimentError as error:
                # The runner finished every other task before raising; every
                # point of this repetition counts as failed.
                points = []
                for index, sweep in enumerate(workload.sweeps):
                    for name in sweep.variants:
                        failures[f"rep{rep}/{index}/{name}"] = str(error)
            cpus.append(process_time() - rep_cpu)
            walls.append(perf_counter() - rep_started)
            counts.append(workload.points_per_rep)
            if points:
                reference = references[rep] if rep < len(references) else None
                for key, problem in workloads.check_rep(workload, points, reference).items():
                    failures[f"rep{rep}/{key}"] = problem
            if rep == 0:
                first_points = points
                # Memory grows slowly from one repetition to the next (the
                # runner's static-topology cache fills), so the peak is taken
                # over the first repetition: the same work at any speed.
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            rep += 1
    finally:
        samples = speedprobe.stop(probe)
    result = {
        "walls": walls,
        "cpus": cpus,
        "probe": samples,
        "points": counts,
        "referenced_reps": min(rep, len(references)),
    }
    if tracer is not None:
        tracer.unpatch()
        result["layers"] = layers.per_layer(tracer, sum(counts))
        result["units"] = layers.UNITS
        os.makedirs(TRACE_DIR, exist_ok=True)
        tracer.save(os.path.join(TRACE_DIR, f"{workload_name}-seed{seed}.npz"))
    else:
        result["rss_mb"] = rss_mb
    if first_points and not workload.paired:
        twin = workloads.twin_problem(workload, seed, first_points)
        if twin is not None:
            failures[f"rep0/{twin[0]}"] = twin[1]
    result["failures"] = failures
    return result


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        outcome = setup(args.workload, args.seed)
    else:
        outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(outcome))


if __name__ == "__main__":
    main()
