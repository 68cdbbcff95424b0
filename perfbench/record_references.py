"""Re-record ``perfbench/references.json``: per-point digests of every workload.

    python3 -m perfbench.record_references

For the default seed (2010) and one held-out seed, runs each workload's
repetitions in order until at least ``RECORD_SECONDS`` of wall time has
passed (several times what one benchmark run gets through, so every
repetition a run completes has a reference) and stores the digest of
each point's simulated statistics.  Record only from a program whose
outputs are known good: the benchmark then fails any point that differs.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PATH = os.path.join(ROOT, "perfbench", "references.json")
SEEDS = (2010, 99)
RECORD_SECONDS = 60.0
MIN_REPS = 4


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from perfbench import workloads

    recorded = {}
    for name, workload in workloads.WORKLOADS.items():
        recorded[name] = {}
        for seed in SEEDS:
            reps = []
            started = perf_counter()
            while len(reps) < MIN_REPS or perf_counter() - started < RECORD_SECONDS:
                points = workloads.run_rep(workload, workloads.rep_seed(seed, len(reps)))
                problems = workloads.check_rep(workload, points, None)
                if problems:
                    print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                    return 1
                reps.append([workloads.digest(point.result) for point in points])
            recorded[name][str(seed)] = reps
            print(f"{name} seed {seed}: {len(reps)} repetitions")
    with open(PATH, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
