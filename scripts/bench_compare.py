#!/usr/bin/env python
"""Performance-regression gate over substrate benchmark baselines.

Compares a freshly measured baseline (``scripts/bench_baseline.py``
output) against the checked-in reference ``BENCH_substrate.json`` and
fails (exit 1) when the hot paths regressed.

Two kinds of check, strongest first:

* **speedup floors** — the baseline file records machine-independent
  ratios between each fast path and its own layer's oracle, timed in
  alternating rounds in the same process (``speedups``, the median
  per-round ratio).  These must clear a floor: the link kernel must
  beat the reference sweep, the functional connectivity metric the
  validity walk and the batch agent engine the per-object stepper, on
  whatever machine CI happens to give us.
* **cross-file tolerance band** — per-workload mean times are compared
  against the reference after normalizing by a machine-speed proxy
  (``speed_probe``, perfbench's fixed pure-Python probe loop, which
  runs no ``repro`` code, so no program change can move it).  Different machines, CPU governors and cache sizes move
  absolute numbers a lot, so the band is generous by default (+80%);
  it exists to catch order-of-magnitude accidents, not 10% noise.

Usage::

    PYTHONPATH=src python scripts/bench_compare.py candidate.json
    PYTHONPATH=src python scripts/bench_compare.py candidate.json \
        --reference BENCH_substrate.json --tolerance 0.8 \
        --min-speedup connectivity_metric=1.3
"""

import argparse
import json
import pathlib
import sys

#: baseline-file schema this gate understands.
BENCH_SCHEMA = 6

#: workload used to normalize cross-machine speed differences: the
#: benchmark of record's speed probe (``perfbench/speedprobe.py``), pure
#: Python dict, list, float and sort work that runs no ``repro`` code.
PROXY_WORKLOAD = "speed_probe"

#: floors for the recorded fast-vs-oracle ratios, per bench scale.
#: ``topology_advance`` and ``connectivity_metric`` are set from ten
#: interleaved runs per scale on the shared 2-vCPU reference box: the
#: lowest median ratio times 0.9, rounded down to 0.05 (full: 1.29x and
#: 3.77x lowest; smoke: 1.41x and 1.46x lowest).  The 2.5x
#: ``topology_advance_5k`` floor is the scaling gate: the deleted dense
#: refresh ran at ~0.4x of the rebuild on that network (measured 6.3x
#: and up).  The batch engine's 1.15x floor sits below its lowest
#: readings, 1.60x over ten full runs and 1.36x over twenty smoke
#: runs.  Sharding has no
#: pair: against the sparse serial world it measures ~1.15x
#: (EXPERIMENTS.md, "Scaling beyond paper size").
DEFAULT_MIN_SPEEDUPS = {
    "full": {
        "topology_advance": 1.15,
        "topology_advance_5k": 2.5,
        "connectivity_metric": 3.35,
        "routing_world_step_batch": 1.15,
    },
    "smoke": {
        "topology_advance": 1.25,
        "topology_advance_5k": 2.5,
        "connectivity_metric": 1.3,
        "routing_world_step_batch": 1.15,
    },
}


def load(path):
    payload = json.loads(pathlib.Path(path).read_text())
    schema = payload.get("schema")
    if schema != BENCH_SCHEMA:
        raise SystemExit(
            f"{path}: unsupported baseline schema {schema!r}, expected {BENCH_SCHEMA}"
        )
    return payload


def check_speedups(candidate, floors, failures):
    recorded = candidate.get("speedups", {})
    for name, floor in sorted(floors.items()):
        ratio = recorded.get(name)
        if ratio is None:
            failures.append(f"speedup for {name!r} missing from candidate")
        elif ratio < floor:
            failures.append(
                f"{name}: speedup {ratio:.2f}x over its oracle below floor {floor:.2f}x"
            )
        else:
            print(f"  ok  {name:<24} speedup {ratio:5.2f}x (floor {floor:.2f}x)")


def check_tolerance(candidate, reference, tolerance, failures):
    cand = candidate["results"]
    ref = reference["results"]
    if PROXY_WORKLOAD not in cand or PROXY_WORKLOAD not in ref:
        failures.append(f"machine-speed proxy {PROXY_WORKLOAD!r} missing")
        return
    # >1 means this machine is slower than the reference machine.
    machine = cand[PROXY_WORKLOAD]["mean_s"] / ref[PROXY_WORKLOAD]["mean_s"]
    print(f"  machine-speed factor vs reference: {machine:.2f}x")
    for name in sorted(set(cand) & set(ref)):
        if name == PROXY_WORKLOAD:
            continue
        normalized = cand[name]["mean_s"] / machine
        allowed = ref[name]["mean_s"] * (1.0 + tolerance)
        if normalized > allowed:
            failures.append(
                f"{name}: normalized mean {normalized * 1e6:.1f} us exceeds "
                f"reference {ref[name]['mean_s'] * 1e6:.1f} us "
                f"+{tolerance * 100:.0f}% band"
            )
        else:
            print(
                f"  ok  {name:<24} normalized {normalized * 1e6:9.1f} us"
                f"  (band {allowed * 1e6:9.1f} us)"
            )


def parse_min_speedup(spec):
    try:
        name, _, value = spec.partition("=")
        return name, float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected NAME=RATIO, got {spec!r}"
        ) from None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("candidate", help="freshly measured baseline JSON")
    parser.add_argument(
        "--reference",
        default="BENCH_substrate.json",
        help="checked-in reference baseline (default BENCH_substrate.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.8,
        help="cross-file slack as a fraction of the reference mean "
        "(default 0.8 = +80%%, generous on purpose)",
    )
    parser.add_argument(
        "--min-speedup",
        action="append",
        type=parse_min_speedup,
        metavar="NAME=RATIO",
        default=None,
        help="override a speedup floor (repeatable); "
        f"defaults: {DEFAULT_MIN_SPEEDUPS}",
    )
    parser.add_argument(
        "--skip-tolerance",
        action="store_true",
        help="check only the machine-independent speedup floors",
    )
    args = parser.parse_args(argv)

    candidate = load(args.candidate)
    scale = candidate.get("manifest", {}).get("scale", "bench-full")
    scale = scale.removeprefix("bench-")
    floors = dict(DEFAULT_MIN_SPEEDUPS.get(scale, DEFAULT_MIN_SPEEDUPS["full"]))
    if args.min_speedup:
        floors.update(args.min_speedup)

    failures = []
    print("speedup floors:")
    check_speedups(candidate, floors, failures)
    if not args.skip_tolerance:
        reference = load(args.reference)
        print("cross-file tolerance band:")
        check_tolerance(candidate, reference, args.tolerance, failures)

    if failures:
        print("PERF GATE FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("perf gate OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
