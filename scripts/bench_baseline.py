#!/usr/bin/env python
"""Substrate micro-benchmark baseline writer.

Runs the same hot-path workloads as ``benchmarks/bench_substrate_ops.py``
— topology recomputation under mobility, the connectivity walk,
knowledge merging, footprint filtering, the routing world step, and
route-table churn — without needing ``pytest-benchmark``, and writes the
timings plus a run manifest to a JSON baseline file.  It also times
``speed_probe``, perfbench's fixed pure-Python probe loop
(``perfbench/speedprobe.py``), which touches no ``repro`` code and so
measures only the machine: ``scripts/bench_compare.py`` normalizes by it.

The checked-in ``BENCH_substrate.json`` is the reference point: re-run
this script after a performance-sensitive change and compare
``ops_per_s`` per workload.  Absolute numbers move between machines;
the *ratios* between workloads and between before/after runs on the
same machine are what matter.

Usage::

    PYTHONPATH=src python scripts/bench_baseline.py                     # full
    PYTHONPATH=src python scripts/bench_baseline.py --scale smoke       # CI
    PYTHONPATH=src python scripts/bench_baseline.py --out BENCH_substrate.json
"""

import argparse
import gc
import json
import pathlib
import random
import sys
from time import perf_counter

from repro.core.knowledge import TopologyKnowledge
from repro.core.stigmergy import StigmergyField
from repro.net.generator import GeneratorConfig, NetworkGenerator
from repro.obs.manifest import build_manifest
from repro.routing.connectivity import connectivity_fraction
from repro.routing.table import RouteEntry, TableBank
from repro.routing.world import RoutingWorld, RoutingWorldConfig

# perfbench lives beside scripts/ at the repository root.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
from perfbench.speedprobe import probe_loop  # noqa: E402 - needs the path above

#: bumped when the baseline-file layout changes incompatibly.
#: 2: added the naive twin workloads and the ``speedups`` section.
#: 3: the naive world twin pins ``batch_agents=False`` (a true
#:    per-object oracle), the ``routing_world_step_batch`` pair
#:    isolates the SoA agent engine at an agent-dominated population,
#:    and every workload gets an untimed warmup round.
#: 4: the sharded-arena pair: ``sharded_world_step`` drives the
#:    tile-sharded world at 10k nodes (5k on smoke) against the serial
#:    world on the same network; these run at their own per-workload
#:    iteration counts (``ITERATION_OVERRIDES``) because a 10k-node
#:    serial step is seconds, not microseconds.
#: 5: the ``topology_advance_5k`` pair (the serial link refresh on the
#:    5k-node MANET against the naive rebuild) carries the scaling
#:    floor; the sharded pair is gone (it measured sharding against the
#:    deleted dense serial refresh).
BENCH_SCHEMA = 5

#: the same 250-node MANET the pytest benchmarks use.
MANET_250 = GeneratorConfig(
    node_count=250,
    target_edges=None,
    range_heterogeneity=0.25,
    require_strong_connectivity=False,
    gateway_count=12,
    mobile_fraction=0.5,
)

#: a small MANET so the CI smoke run finishes in seconds.
MANET_60 = GeneratorConfig(
    node_count=60,
    target_edges=None,
    range_heterogeneity=0.25,
    require_strong_connectivity=False,
    gateway_count=4,
    mobile_fraction=0.5,
)

#: the network of the 5k topology refresh pair at both scales.
MANET_5K = GeneratorConfig(
    node_count=5_000,
    target_edges=None,
    range_heterogeneity=0.25,
    require_strong_connectivity=False,
    gateway_count=32,
    mobile_fraction=0.5,
)

#: (iterations per round, rounds) per scale.
SCALES = {
    "full": (200, 5),
    "smoke": (20, 3),
}

#: per-workload (iterations, rounds) overrides: a naive 5k-node
#: rebuild runs in a good fraction of a second, so the 5k pair gets a
#: handful of iterations instead of the scale default.
ITERATION_OVERRIDES = {
    "full": {
        "topology_advance_5k": (20, 3),
        "topology_advance_5k_naive": (3, 3),
    },
    "smoke": {
        "topology_advance_5k": (10, 2),
        "topology_advance_5k_naive": (2, 2),
    },
}


def _time_workload(func, iterations, rounds):
    """Best/mean/median per-call seconds over ``rounds`` timed rounds.

    One untimed warmup round runs first so stateful workloads (the
    world steppers ramp up routes and connectivity over their first few
    hundred steps) are measured in steady state, not mid-ramp.  Then,
    as ``timeit`` does, the garbage collector is emptied and switched
    off for the timed rounds, so a workload is not charged for a full
    collection that garbage left by an earlier one sets off.
    """
    for __ in range(iterations):
        func()
    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    try:
        per_call = []
        for __ in range(rounds):
            started = perf_counter()
            for __ in range(iterations):
                func()
            per_call.append((perf_counter() - started) / iterations)
    finally:
        if collecting:
            gc.enable()
    per_call.sort()
    mean = sum(per_call) / len(per_call)
    return {
        "iterations": iterations,
        "rounds": rounds,
        "min_s": per_call[0],
        "p50_s": per_call[len(per_call) // 2],
        "mean_s": mean,
        "ops_per_s": (1.0 / mean) if mean > 0 else 0.0,
    }


def _workloads(scale):
    """Yield ``(name, callable)`` pairs; construction cost is excluded."""
    manet = MANET_250 if scale == "full" else MANET_60
    world_pop = 100 if scale == "full" else 30
    merge_nodes = 300 if scale == "full" else 80

    topology = NetworkGenerator(manet, 1).generate_manet()

    def topology_advance():
        topology.advance()
        return topology.edge_count

    # The same network driven through the naive rebuild-from-scratch
    # path — the denominator of the incremental engine's speedup.
    naive_topology = NetworkGenerator(manet, 1).generate_manet()
    naive_topology.set_incremental(False)

    def topology_advance_naive():
        naive_topology.advance()
        return naive_topology.edge_count

    # The same pair on the 5k-node MANET, where the link refresh is the
    # whole cost: the sparse link kernel against the naive rebuild.
    topology_5k = NetworkGenerator(MANET_5K, 1).generate_manet()

    def topology_advance_5k():
        topology_5k.advance()
        return topology_5k.edge_count

    naive_topology_5k = NetworkGenerator(MANET_5K, 1).generate_manet()
    naive_topology_5k.set_incremental(False)

    def topology_advance_5k_naive():
        naive_topology_5k.advance()
        return naive_topology_5k.edge_count

    warm = RoutingWorld(
        NetworkGenerator(manet, 2).generate_manet(),
        RoutingWorldConfig(population=world_pop, total_steps=40, converged_after=20),
        seed=3,
    )
    warm.run()

    def connectivity_metric():
        return connectivity_fraction(warm.topology, warm.tables)

    rng = random.Random(4)
    source = TopologyKnowledge(merge_nodes)
    for node in range(merge_nodes):
        source.observe_node(
            node, [rng.randrange(merge_nodes) for __ in range(7)], node
        )
    edges = source.shareable_edges()
    visits = source.shareable_visits()

    def knowledge_merge():
        sink = TopologyKnowledge(merge_nodes, source.index)
        sink.absorb(edges, visits)
        return sink.known_edge_count

    field = StigmergyField(capacity=16, freshness=10)
    stamp_rng = random.Random(5)
    for agent in range(40):
        field.stamp(0, agent, stamp_rng.randrange(10), stamp_rng.randrange(10))
    candidates = list(range(10))

    def footprint_filter():
        return field.filter_candidates(0, candidates, 10)

    stepper = RoutingWorld(
        NetworkGenerator(manet, 6).generate_manet(),
        RoutingWorldConfig(
            population=world_pop, total_steps=10_000_000, converged_after=0
        ),
        seed=7,
    )

    def world_step():
        stepper.engine.step()
        return stepper.result.connectivity[-1]

    # The reference configuration: rebuild-from-scratch topology, a full
    # re-walk of the connectivity metric every step, and per-object
    # agent stepping (the batch engine's oracle twin).
    naive_stepper = RoutingWorld(
        NetworkGenerator(manet, 6).generate_manet(),
        RoutingWorldConfig(
            population=world_pop,
            total_steps=10_000_000,
            converged_after=0,
            connectivity_cache=False,
            batch_agents=False,
        ),
        seed=7,
    )
    naive_stepper.topology.set_incremental(False)

    def world_step_naive():
        naive_stepper.engine.step()
        return naive_stepper.result.connectivity[-1]

    # The SoA batch engine isolated: both twins keep the incremental
    # topology and delta-aware connectivity, only the agent engine
    # differs, and the population is large enough that agent stepping
    # dominates the tick.
    batch_pop = 500 if scale == "full" else 100
    batch_steppers = []
    for batch in (True, False):
        world = RoutingWorld(
            NetworkGenerator(manet, 6).generate_manet(),
            RoutingWorldConfig(
                population=batch_pop,
                total_steps=10_000_000,
                converged_after=0,
                batch_agents=batch,
            ),
            seed=7,
        )
        batch_steppers.append(world)
    batch_stepper, object_stepper = batch_steppers

    def world_step_batch():
        batch_stepper.engine.step()
        return batch_stepper.result.connectivity[-1]

    def world_step_batch_naive():
        object_stepper.engine.step()
        return object_stepper.result.connectivity[-1]

    bank = TableBank(250, ttl=150)
    churn_rng = random.Random(8)

    def table_churn():
        now = churn_rng.randrange(1000)
        node = churn_rng.randrange(250)
        bank.table(node).install(
            RouteEntry(
                gateway=churn_rng.randrange(12),
                next_hop=churn_rng.randrange(250),
                hops=churn_rng.randrange(1, 10),
                installed_at=now,
                gateway_seen_at=now,
            )
        )
        return bank.table(node).expire(now)

    return [
        ("speed_probe", probe_loop),
        ("topology_advance", topology_advance),
        ("topology_advance_naive", topology_advance_naive),
        ("topology_advance_5k", topology_advance_5k),
        ("topology_advance_5k_naive", topology_advance_5k_naive),
        ("connectivity_metric", connectivity_metric),
        ("knowledge_merge", knowledge_merge),
        ("footprint_filter", footprint_filter),
        ("routing_world_step", world_step),
        ("routing_world_step_naive", world_step_naive),
        ("routing_world_step_batch", world_step_batch),
        ("routing_world_step_batch_naive", world_step_batch_naive),
        ("table_install_expire", table_churn),
    ]


#: incremental workload -> its rebuild-from-scratch twin.  The recorded
#: ``speedups`` ratios are machine-independent (both sides run on the
#: same box in the same process), which is what the CI perf gate checks.
SPEEDUP_PAIRS = {
    "topology_advance": "topology_advance_naive",
    "topology_advance_5k": "topology_advance_5k_naive",
    "routing_world_step": "routing_world_step_naive",
    "routing_world_step_batch": "routing_world_step_batch_naive",
}


def _speedups(results):
    speedups = {}
    for fast, slow in SPEEDUP_PAIRS.items():
        if fast in results and slow in results:
            mean = results[fast]["mean_s"]
            speedups[fast] = results[slow]["mean_s"] / mean if mean > 0 else 0.0
    return speedups


def run_benchmarks(scale):
    """Run every workload at ``scale``; return the JSON-safe baseline."""
    iterations, rounds = SCALES[scale]
    overrides = ITERATION_OVERRIDES[scale]
    results = {}
    for name, func in _workloads(scale):
        print(f"  {name} ...", file=sys.stderr, flush=True)
        its, rds = overrides.get(name, (iterations, rounds))
        results[name] = _time_workload(func, its, rds)
    return {
        "schema": BENCH_SCHEMA,
        "manifest": build_manifest(
            master_seed=0,
            scale=f"bench-{scale}",
            experiments=sorted(results),
            options={"iterations": iterations, "rounds": rounds},
        ),
        "results": results,
        "speedups": _speedups(results),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="full",
        help="workload size: 'full' for baselines, 'smoke' for CI (default full)",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        default="BENCH_substrate.json",
        help="where to write the baseline JSON (default BENCH_substrate.json)",
    )
    args = parser.parse_args(argv)
    payload = run_benchmarks(args.scale)
    path = pathlib.Path(args.out)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    width = max(len(name) for name in payload["results"])
    for name, stats in sorted(payload["results"].items()):
        print(
            f"{name:<{width}}  mean {stats['mean_s'] * 1e6:10.1f} us"
            f"  p50 {stats['p50_s'] * 1e6:10.1f} us"
            f"  {stats['ops_per_s']:12.0f} ops/s"
        )
    for name, ratio in sorted(payload["speedups"].items()):
        print(f"{name:<{width}}  {ratio:5.2f}x vs naive")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
