#!/usr/bin/env python
"""Substrate micro-benchmark baseline writer.

Holds the only definition of each substrate micro-benchmark workload
(:data:`WORKLOADS`) — topology refresh under mobility, the connectivity
metric, knowledge merging, footprint filtering, the routing world step
and route-table churn — and writes their timings plus a run manifest to
a JSON baseline file.  ``benchmarks/bench_substrate_ops.py`` runs the
same registry under ``pytest-benchmark``.  ``speed_probe`` is
perfbench's fixed pure-Python probe loop (``perfbench/speedprobe.py``),
which touches no ``repro`` code and so measures only the machine:
``scripts/bench_compare.py`` normalizes by it.

Each pair in :data:`SPEEDUP_PAIRS` times one layer's fast path against
that layer's own oracle.  The two sides run in alternating rounds (fast,
oracle, fast, oracle, ...), and the recorded speedup is the median of
the per-round ratios, so a slow spell of the core lands on both sides
of a ratio instead of on one side of it.

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
from statistics import median
from time import perf_counter

from repro.core.knowledge import TopologyKnowledge
from repro.core.stigmergy import StigmergyField
from repro.net.generator import GeneratorConfig, NetworkGenerator
from repro.net.topology import Topology
from repro.obs.manifest import build_manifest
from repro.routing.connectivity import FunctionalConnectivity, connected_nodes
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
#: 6: each pair's denominator is its own layer's oracle (``*_oracle``),
#:    the two sides run in alternating rounds and ``speedups`` holds the
#:    median per-round ratio; ``connectivity_metric`` became a pair and
#:    the composite ``routing_world_step_naive`` twin is gone.
BENCH_SCHEMA = 6

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

#: per-workload (iterations, rounds) overrides, keyed by the fast side
#: for a pair (both sides share them).  A 5k-node oracle rebuild runs in
#: tens of milliseconds, so that pair gets a handful of iterations, and
#: every pair gets more rounds than the scale default so its median
#: ratio rests on more than three samples.
ITERATION_OVERRIDES = {
    "full": {
        "topology_advance": (100, 11),
        "topology_advance_5k": (5, 9),
        "connectivity_metric": (100, 11),
        "routing_world_step_batch": (40, 11),
    },
    "smoke": {
        "topology_advance": (50, 15),
        "topology_advance_5k": (3, 7),
        "connectivity_metric": (50, 15),
        "routing_world_step_batch": (10, 15),
    },
}


def _manet(scale):
    return MANET_250 if scale == "full" else MANET_60


def _world_population(scale):
    # ``routing_world_step`` leaves ``batch_agents`` unset, so its path
    # follows the team size: 100 agents (full) reach the engine's
    # crossover (``BATCH_MIN_POPULATION``) and run the engine, 30 (smoke)
    # run the per-object step.  ``routing_world_step_batch`` pins both.
    return 100 if scale == "full" else 30


def _batch_population(scale):
    # Large enough that agent stepping dominates the tick.
    return 500 if scale == "full" else 100


def _advancing(config, refresh):
    """One step of motion, then ``refresh`` of the link set."""
    # A generated network, not a kept blueprint's copy: no link memo
    # serves its refreshes, so each one runs the link computation.
    topology = NetworkGenerator(config, 1).generate_manet()

    def advance():
        topology.advance()
        refresh(topology)
        return topology.edge_count

    return advance


def _warm_world(scale):
    """A short world run, so the tables hold realistic routes."""
    world = RoutingWorld(
        NetworkGenerator(_manet(scale), 2).generate_manet(),
        RoutingWorldConfig(
            population=_world_population(scale), total_steps=40, converged_after=20
        ),
        seed=3,
    )
    world.run()
    return world


def _functional_metric(scale):
    world = _warm_world(scale)
    metric = FunctionalConnectivity(world.topology, world.tables, world.config.walk_ttl)
    return lambda: len(metric.connected())


def _walked_metric(scale):
    world = _warm_world(scale)
    return lambda: len(connected_nodes(world.topology, world.tables, world.config.walk_ttl))


def _knowledge_merge(scale):
    merge_nodes = 300 if scale == "full" else 80
    rng = random.Random(4)
    source = TopologyKnowledge(merge_nodes)
    for node in range(merge_nodes):
        source.observe_node(node, [rng.randrange(merge_nodes) for __ in range(7)], node)
    edges = source.shareable_edges()
    visits = source.shareable_visits()

    def merge():
        sink = TopologyKnowledge(merge_nodes, source.index)
        sink.absorb(edges, visits)
        return sink.known_edge_count

    return merge


def _footprint_filter(scale):
    field = StigmergyField(capacity=16, freshness=10)
    rng = random.Random(5)
    for agent in range(40):
        field.stamp(0, agent, rng.randrange(10), rng.randrange(10))
    candidates = list(range(10))
    return lambda: field.filter_candidates(0, candidates, 10)


def _stepping(scale, population, batch_agents):
    """One world step; ``batch_agents`` picks the agent engine."""
    # Each world draws its own network: the stepping workloads share
    # network seed 6, but no link memo joins them, so neither serves the
    # other's states and their ratio stays a ratio of engines.
    world = RoutingWorld(
        NetworkGenerator(_manet(scale), 6).generate_manet(),
        RoutingWorldConfig(
            population=population,
            total_steps=10_000_000,
            converged_after=0,
            batch_agents=batch_agents,
        ),
        seed=7,
    )

    def step():
        world.engine.step()
        return world.result.connectivity[-1]

    return step


def _table_churn(scale):
    bank = TableBank(250, ttl=150)
    rng = random.Random(8)

    def churn():
        now = rng.randrange(1000)
        node = rng.randrange(250)
        bank.table(node).install(
            RouteEntry(
                gateway=rng.randrange(12),
                next_hop=rng.randrange(250),
                hops=rng.randrange(1, 10),
                installed_at=now,
                gateway_seen_at=now,
            )
        )
        return bank.table(node).expire(now)

    return churn


#: workload name -> ``build(scale)``, which does the (untimed) setup and
#: returns the zero-argument callable to time.
WORKLOADS = {
    "speed_probe": lambda scale: probe_loop,
    "topology_advance": lambda scale: _advancing(_manet(scale), Topology.recompute),
    "topology_advance_oracle": lambda scale: _advancing(
        _manet(scale), Topology.force_full_rebuild
    ),
    "topology_advance_5k": lambda scale: _advancing(MANET_5K, Topology.recompute),
    "topology_advance_5k_oracle": lambda scale: _advancing(
        MANET_5K, Topology.force_full_rebuild
    ),
    "connectivity_metric": _functional_metric,
    "connectivity_metric_oracle": _walked_metric,
    "knowledge_merge": _knowledge_merge,
    "footprint_filter": _footprint_filter,
    "routing_world_step": lambda scale: _stepping(scale, _world_population(scale), None),
    "routing_world_step_batch": lambda scale: _stepping(scale, _batch_population(scale), True),
    "routing_world_step_batch_oracle": lambda scale: _stepping(
        scale, _batch_population(scale), False
    ),
    "table_install_expire": _table_churn,
}

#: fast workload -> the oracle of the same layer it is timed against:
#: the link kernel against the reference sweep, the functional
#: connectivity metric against the validity walk, and the batch agent
#: engine against the per-object stepper.  Both sides run in the same
#: process, so the recorded ratios are machine-independent, which is
#: what the CI perf gate checks.
SPEEDUP_PAIRS = {
    "topology_advance": "topology_advance_oracle",
    "topology_advance_5k": "topology_advance_5k_oracle",
    "connectivity_metric": "connectivity_metric_oracle",
    "routing_world_step_batch": "routing_world_step_batch_oracle",
}


def _time_rounds(funcs, iterations, rounds):
    """Per-call seconds of each of ``funcs``, one list per function.

    The functions take turns, one round each, ``rounds`` times over.
    One untimed warmup round of each runs first so stateful workloads
    (the world steppers ramp up routes and connectivity over their first
    few hundred steps) are measured in steady state, not mid-ramp.  Then,
    as ``timeit`` does, the garbage collector is emptied and switched
    off for the timed rounds, so a workload is not charged for a full
    collection that garbage left by an earlier one sets off.
    """
    for func in funcs:
        for __ in range(iterations):
            func()
    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    per_call = [[] for __ in funcs]
    try:
        for __ in range(rounds):
            for func, times in zip(funcs, per_call):
                started = perf_counter()
                for __ in range(iterations):
                    func()
                times.append((perf_counter() - started) / iterations)
    finally:
        if collecting:
            gc.enable()
    return per_call


def _stats(per_call, iterations):
    mean = sum(per_call) / len(per_call)
    return {
        "iterations": iterations,
        "rounds": len(per_call),
        "min_s": min(per_call),
        "p50_s": median(per_call),
        "mean_s": mean,
        "ops_per_s": (1.0 / mean) if mean > 0 else 0.0,
    }


def run_benchmarks(scale):
    """Run every workload at ``scale``; return the JSON-safe baseline."""
    iterations, rounds = SCALES[scale]
    overrides = ITERATION_OVERRIDES[scale]
    oracles = set(SPEEDUP_PAIRS.values())
    results = {}
    speedups = {}
    for name, build in WORKLOADS.items():
        if name in oracles:
            continue
        group = [name]
        if name in SPEEDUP_PAIRS:
            group.append(SPEEDUP_PAIRS[name])
        print(f"  {' vs '.join(group)} ...", file=sys.stderr, flush=True)
        its, rds = overrides.get(name, (iterations, rounds))
        timed = _time_rounds([WORKLOADS[member](scale) for member in group], its, rds)
        for member, per_call in zip(group, timed):
            results[member] = _stats(per_call, its)
        if len(timed) == 2:
            speedups[name] = median(slow / fast for fast, slow in zip(*timed))
    return {
        "schema": BENCH_SCHEMA,
        "manifest": build_manifest(
            master_seed=0,
            scale=f"bench-{scale}",
            experiments=sorted(results),
            options={"iterations": iterations, "rounds": rounds},
        ),
        "results": results,
        "speedups": speedups,
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
        print(f"{name:<{width}}  {ratio:5.2f}x vs {SPEEDUP_PAIRS[name]}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
