#!/usr/bin/env python
"""How much of a benchmark workload's CPU time the garbage collector takes.

Runs the fixed repetitions ``0..k-1`` of one ``perfbench`` workload (the
seeds ``perfbench/run.py`` derives for them), untraced, and times every
cyclic-GC pause with :data:`gc.callbacks`.  Fixed repetitions keep the
measured work the same from run to run, so two checkouts can be
compared on it directly.  Prints one JSON object:

* ``cpu_s`` — process CPU seconds spent in the repetitions,
* ``gc_s`` and ``gc_share`` — total GC pause seconds and their share of
  ``cpu_s``,
* ``by_generation`` — per generation: collections, pause seconds and
  objects collected.

Usage, from the repository root::

    python scripts/gc_share.py --workload manet_arena --seed 2010 --reps 3

It imports ``perfbench.workloads`` and the program from this checkout's
``src`` and changes neither.  Pause times are wall-clock intervals
around each collection, so run it on an otherwise idle core.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from time import perf_counter, process_time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import workloads  # noqa: E402 - needs the paths above


class GcPauses:
    """Per-generation collection counts, pause seconds and objects freed."""

    def __init__(self) -> None:
        self.collections = [0, 0, 0]
        self.seconds = [0.0, 0.0, 0.0]
        self.collected = [0, 0, 0]
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = perf_counter()
            return
        generation = info["generation"]
        self.collections[generation] += 1
        self.seconds[generation] += perf_counter() - self._started
        self.collected[generation] += info["collected"]


def measure(name: str, seed: int, reps: int) -> dict:
    """Run repetitions ``0..reps-1`` of workload ``name``; the GC report."""
    workload = workloads.WORKLOADS[name]
    pauses = GcPauses()
    gc.collect()
    gc.callbacks.append(pauses)
    started = process_time()
    try:
        for rep in range(reps):
            workloads.run_rep(workload, workloads.rep_seed(seed, rep))
    finally:
        cpu = process_time() - started
        gc.callbacks.remove(pauses)
    total = sum(pauses.seconds)
    return {
        "workload": name,
        "seed": seed,
        "reps": reps,
        "cpu_s": round(cpu, 3),
        "gc_s": round(total, 3),
        "gc_share": round(total / cpu, 3) if cpu else 0.0,
        "by_generation": [
            {
                "generation": generation,
                "collections": pauses.collections[generation],
                "pause_s": round(pauses.seconds[generation], 3),
                "collected": pauses.collected[generation],
            }
            for generation in range(3)
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=2010)
    parser.add_argument("--reps", type=int, default=3, help="repetitions 0..reps-1")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    print(json.dumps(measure(args.workload, args.seed, args.reps)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
