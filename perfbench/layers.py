"""Which public callables the traced run wraps, and the per-layer metrics.

Span names are ``<module>.<operation>``; each span's self time is charged
to exactly one metric below, so the ``*_s`` self-time metrics partition
the traced sweep wall time.  Times and counts are per sweep point, so two
runs that complete different numbers of points stay comparable.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from perfbench.tracing import Tracer, self_times

#: span name -> metric its self time is charged to.
SELF_METRICS: Dict[str, str] = {
    "experiments.runner.sweep": "experiments.runner.self_s",
    "net.generator.generate": "net.generator.busy_s",
    "routing.world.build": "routing.world.build_s",
    "routing.world.run": "routing.world.run_s",
    "mapping.world.build": "mapping.world.build_s",
    "mapping.world.run": "mapping.world.run_s",
    "sim.engine.step": "sim.engine.self_s",
    "net.topology.advance": "net.topology.advance_s",
    "net.topology.read": "net.topology.read_s",
    "net.topology.refresh": "net.topology.refresh_s",
    "routing.table.expire": "routing.table.expire_s",
    "core.batch.step_agents": "core.batch.step_agents_s",
    "routing.connectivity.connected": "routing.connectivity.connected_s",
    "core.comms.exchange": "core.comms.exchange_s",
    "core.knowledge.absorb": "core.knowledge.absorb_s",
    "core.mapping_agents.observe": "core.mapping_agents.observe_s",
    "core.mapping_agents.choose": "core.mapping_agents.choose_s",
    "mapping.metrics.record": "mapping.metrics.record_s",
    "sim.invariants.check": "sim.invariants.check_s",
    "shard.world.build": "shard.world.build_s",
    "shard.world.run": "shard.world.run_s",
    "shard.tiles.refresh": "shard.tiles.refresh_s",
    "shard.worker.begin": "shard.worker.begin_s",
    "shard.worker.core": "shard.worker.core_s",
    "shard.worker.finish": "shard.worker.finish_s",
}

#: counter -> metric it is reported as (per point).
COUNT_METRICS: Dict[str, str] = {
    "generator.calls": "net.generator.calls",
    "topology.flips": "net.topology.edge_flips",
    "batch.agent_steps": "core.batch.agent_steps",
    "comms.meetings": "core.comms.meetings",
    "invariants.checks": "sim.invariants.checks",
    "invariants.violations": "sim.invariants.violations",
}

#: every per-layer metric with its unit, in report order.
UNITS: Dict[str, str] = {
    "sim.engine.step_s_p50": "s",
    "sim.engine.step_s_p99": "s",
    "sim.engine.steps": "count",
    "shard.world.coordinator_s": "s/point",
    "routing.connectivity.rewalk_frac": "ratio",
    "core.knowledge.absorb_new_frac": "ratio",
    "trace.points_per_ref_s": "1/s",
    "trace.untraced_points_per_ref_s": "1/s",
    "trace.overhead_x": "x",
}
UNITS.update({metric: "s/point" for metric in SELF_METRICS.values()})
UNITS.update({metric: "count/point" for metric in COUNT_METRICS.values()})


def install(tracer: Tracer) -> None:
    """Wrap every traced layer's public entry points."""
    from repro.core.batch import BatchAgentEngine
    from repro.core.knowledge import TopologyKnowledge
    from repro.core.mapping_agents import MappingAgent
    from repro.experiments import runner
    from repro.mapping import world as mapping_world
    from repro.mapping.metrics import KnowledgeTracker
    from repro.net.generator import NetworkGenerator
    from repro.net.topology import Topology
    from repro.routing import world as routing_world
    from repro.routing.connectivity import FunctionalConnectivity
    from repro.routing.table import TableBank
    from repro.shard import worker as shard_worker
    from repro.shard.tiles import TileAdjacency
    from repro.shard.world import ShardedRoutingWorld
    from repro.sim.engine import TimeStepEngine
    from repro.sim.invariants import InvariantChecker

    counts = tracer.counts

    def bump(key: str, amount: float = 1.0) -> None:
        counts[key] += amount

    def stepping_enter(args):
        tracer.stepping += 1

    def stepping_leave(args, result, state):
        tracer.stepping -= 1

    def flips_enter(args):
        stats = args[0].stats
        return stats.edges_added + stats.edges_removed

    def flips_leave(args, result, before):
        stats = args[0].stats
        if tracer.stepping:
            bump("topology.flips", stats.edges_added + stats.edges_removed - before)

    def tile_flips_leave(args, result, state):
        if tracer.stepping and result is not None:
            bump("topology.flips", result[0].size + result[1].size)

    def connectivity_enter(args):
        stats = args[0].stats
        return stats.hits, stats.walks

    def connectivity_leave(args, result, before):
        stats = args[0].stats
        bump("connectivity.hits", stats.hits - before[0])
        bump("connectivity.walks", stats.walks - before[1])

    def absorb_enter(args):
        return args[0].known_edge_count

    def absorb_leave(args, result, before):
        bump("knowledge.offered", len(args[1]))
        bump("knowledge.learned", args[0].known_edge_count - before)

    def violations_enter(args):
        return len(args[0].violations)

    def violations_leave(args, result, before):
        bump("invariants.checks")
        bump("invariants.violations", len(args[0].violations) - before)

    def leave_only(fn):
        return (lambda args: None, fn)

    patch = tracer.patch
    for name in ("run_routing_variants", "run_mapping_variants"):
        patch(runner, name, "experiments.runner.sweep")
    for name in ("generate_manet", "generate_static"):
        patch(
            NetworkGenerator,
            name,
            "net.generator.generate",
            leave_only(lambda args, result, state: bump("generator.calls")),
        )
    patch(routing_world.RoutingWorld, "__init__", "routing.world.build")
    patch(routing_world.RoutingWorld, "run", "routing.world.run")
    patch(mapping_world.MappingWorld, "__init__", "mapping.world.build")
    patch(mapping_world.MappingWorld, "run", "mapping.world.run")
    patch(ShardedRoutingWorld, "__init__", "shard.world.build")
    patch(ShardedRoutingWorld, "run", "shard.world.run")
    patch(TimeStepEngine, "step", "sim.engine.step", (stepping_enter, stepping_leave))
    for name in ("advance", "advance_motion"):
        patch(Topology, name, "net.topology.advance")
    # The refresh is lazy: it runs inside whichever read comes first.
    for name in (
        "adjacency_view",
        "out_neighbors",
        "in_neighbors",
        "has_edge",
        "edge_set",
        "edge_count",
        "adjacency_copy",
        "take_edge_delta",
        "is_strongly_connected",
    ):
        patch(Topology, name, "net.topology.read")
    patch(Topology, "recompute", "net.topology.refresh", (flips_enter, flips_leave))
    patch(TableBank, "expire_all", "routing.table.expire")
    patch(
        BatchAgentEngine,
        "step_agents",
        "core.batch.step_agents",
        leave_only(lambda args, result, state: bump("batch.agent_steps", args[0].loc.size)),
    )
    patch(
        FunctionalConnectivity,
        "connected",
        "routing.connectivity.connected",
        (connectivity_enter, connectivity_leave),
    )
    meetings = leave_only(
        lambda args, result, state: bump("comms.meetings", result or 0)
    )
    # The worlds import the exchange functions by name: wrap those bindings.
    patch(mapping_world, "exchange_mapping_knowledge", "core.comms.exchange", meetings)
    patch(routing_world, "exchange_routing_knowledge", "core.comms.exchange", meetings)
    patch(shard_worker, "exchange_routing_knowledge", "core.comms.exchange", meetings)
    patch(TopologyKnowledge, "absorb", "core.knowledge.absorb", (absorb_enter, absorb_leave))
    patch(MappingAgent, "observe", "core.mapping_agents.observe")
    patch(MappingAgent, "choose_next", "core.mapping_agents.choose")
    patch(KnowledgeTracker, "record", "mapping.metrics.record")
    patch(
        InvariantChecker,
        "check_now",
        "sim.invariants.check",
        (violations_enter, violations_leave),
    )
    patch(TileAdjacency, "refresh", "shard.tiles.refresh", leave_only(tile_flips_leave))
    for method, name in (
        ("begin_step", "shard.worker.begin"),
        ("step_core", "shard.worker.core"),
        ("finish_step", "shard.worker.finish"),
    ):
        patch(shard_worker.TileWorker, method, name)


def per_layer(tracer: Tracer, points: int) -> Dict[str, float]:
    """Every per-layer metric from a finished trace (trace.* excluded)."""
    arrays = tracer.arrays()
    names = arrays["name"]
    parent = arrays["parent"]
    duration, own = self_times(arrays)
    ids = {name: index for index, name in enumerate(tracer.names)}

    def mask(*span_names: str) -> np.ndarray:
        wanted = [ids[name] for name in span_names if name in ids]
        return np.isin(names, wanted)

    metrics: Dict[str, float] = {metric: 0.0 for metric in UNITS}
    for span_name, metric in SELF_METRICS.items():
        metrics[metric] = float(own[mask(span_name)].sum()) / points
    for key, metric in COUNT_METRICS.items():
        metrics[metric] = tracer.counts.get(key, 0.0) / points
    steps = mask("sim.engine.step")
    step_times = duration[steps]
    metrics["sim.engine.steps"] = float(step_times.size)
    if step_times.size:
        p50, p99 = np.percentile(step_times, [50, 99])
        metrics["sim.engine.step_s_p50"] = float(p50)
        metrics["sim.engine.step_s_p99"] = float(p99)
    # The coordinator's serial fraction: sharded step time outside the
    # tile workers' three rounds.
    workers = mask("shard.worker.begin", "shard.worker.core", "shard.worker.finish")
    nested = workers & (parent >= 0)
    in_workers = np.bincount(parent[nested], weights=duration[nested], minlength=len(names))
    sharded = steps & (parent >= 0)
    sharded[sharded] = mask("shard.world.run")[parent[sharded]]
    metrics["shard.world.coordinator_s"] = (
        float((duration[sharded] - in_workers[sharded]).sum()) / points
    )
    counts = tracer.counts
    walked = counts.get("connectivity.hits", 0.0) + counts.get("connectivity.walks", 0.0)
    if walked:
        metrics["routing.connectivity.rewalk_frac"] = counts["connectivity.walks"] / walked
    offered = counts.get("knowledge.offered", 0.0)
    if offered:
        metrics["core.knowledge.absorb_new_frac"] = counts["knowledge.learned"] / offered
    return metrics

