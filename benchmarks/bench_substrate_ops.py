"""Micro-benchmarks of the hot substrate operations.

These are the per-step costs every experiment pays: topology
recomputation under mobility, the connectivity walk, knowledge merging
in meetings, and footprint filtering.  Useful for catching performance
regressions that would silently stretch paper-scale runs from minutes
to hours.
"""

import random

from repro.core.knowledge import TopologyKnowledge
from repro.core.stigmergy import StigmergyField
from repro.net.generator import GeneratorConfig, NetworkGenerator
from repro.routing.connectivity import connectivity_fraction
from repro.routing.table import RouteEntry, TableBank
from repro.routing.world import RoutingWorld, RoutingWorldConfig

MANET_250 = GeneratorConfig(
    node_count=250,
    target_edges=None,
    range_heterogeneity=0.25,
    require_strong_connectivity=False,
    gateway_count=12,
    mobile_fraction=0.5,
)


def test_topology_recompute_250_nodes(benchmark):
    topology = NetworkGenerator(MANET_250, 1).generate_manet()

    def advance_and_recompute():
        topology.advance()
        return topology.edge_count

    edges = benchmark(advance_and_recompute)
    assert edges > 0


def test_connectivity_metric_250_nodes(benchmark):
    # Run a short world first so the tables hold realistic routes.
    topology = NetworkGenerator(MANET_250, 2).generate_manet()
    config = RoutingWorldConfig(population=60, total_steps=40, converged_after=20)
    world = RoutingWorld(topology, config, seed=3)
    world.run()
    fraction = benchmark(connectivity_fraction, world.topology, world.tables)
    assert 0.0 <= fraction <= 1.0


def test_knowledge_merge_2000_edges(benchmark):
    rng = random.Random(4)
    source = TopologyKnowledge(300)
    for node in range(300):
        source.observe_node(node, [rng.randrange(300) for __ in range(7)], node)
    edges = source.shareable_edges()
    visits = source.shareable_visits()

    def merge():
        sink = TopologyKnowledge(300, source.index)
        sink.absorb(edges, visits)
        return sink.known_edge_count

    count = benchmark(merge)
    assert count == len(edges)


def test_footprint_filter_under_load(benchmark):
    field = StigmergyField(capacity=16, freshness=10)
    rng = random.Random(5)
    for agent in range(40):
        field.stamp(0, agent, rng.randrange(10), rng.randrange(10))
    candidates = list(range(10))

    result = benchmark(field.filter_candidates, 0, candidates, 10)
    assert result


def test_routing_world_step_cost(benchmark):
    topology = NetworkGenerator(MANET_250, 6).generate_manet()
    config = RoutingWorldConfig(population=100, total_steps=10_000, converged_after=0)
    world = RoutingWorld(topology, config, seed=7)

    def one_step():
        world.engine.step()
        return world.result.connectivity[-1]

    value = benchmark(one_step)
    assert 0.0 <= value <= 1.0


def test_table_install_and_expire(benchmark):
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

    benchmark(churn)
