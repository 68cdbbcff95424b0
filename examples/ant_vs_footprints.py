#!/usr/bin/env python
"""Attractive pheromone (ant colony) vs repulsive footprints (the paper).

The paper's related work coordinates routing agents with *attractive*
ant pheromone (AntHocNet and friends); the paper's own mechanism is the
opposite — footprints that *repel* agents apart.  This example runs
both coordination styles (plus an uncoordinated reference) on the same
MANET and the same metric, and prints where each style's agents spend
their time relative to the gateways.

Run::

    python examples/ant_vs_footprints.py [seed]
"""

from __future__ import annotations

import sys
from collections import Counter

from repro import RoutingWorld, RoutingWorldConfig, generate_manet_network
from repro.net.generator import GeneratorConfig
from repro.net.graphutils import bfs_hops, reversed_adjacency

NETWORK = GeneratorConfig(
    node_count=120,
    target_edges=None,
    range_heterogeneity=0.25,
    require_strong_connectivity=False,
    gateway_count=6,
    mobile_fraction=0.5,
)

VARIANTS = {
    "oldest-node + footprints": dict(agent_kind="oldest-node", stigmergic=True),
    "oldest-node (plain)": dict(agent_kind="oldest-node"),
    "ant pheromone": dict(agent_kind="ant"),
}


def gateway_distance_histogram(world) -> Counter:
    """How far from the nearest gateway the agents currently sit."""
    reverse = reversed_adjacency(world.topology.adjacency_copy())
    distance = {}
    for gateway in world.topology.gateway_ids:
        for node, hops in bfs_hops(reverse, gateway).items():
            if node not in distance or hops < distance[node]:
                distance[node] = hops
    histogram = Counter()
    for agent in world.agents:
        histogram[distance.get(agent.location, -1)] += 1
    return histogram


def main(seed: int = 1) -> None:
    print(f"{'variant':28s}  {'connectivity':>12s}  {'agents <=2 hops of a gateway':>30s}")
    for name, overrides in VARIANTS.items():
        topology = generate_manet_network(seed, NETWORK)
        config = RoutingWorldConfig(
            population=40,
            history_size=12,
            total_steps=200,
            converged_after=100,
            **overrides,
        )
        world = RoutingWorld(topology, config, seed)
        result = world.run()
        histogram = gateway_distance_histogram(world)
        near = sum(count for hops, count in histogram.items() if 0 <= hops <= 2)
        print(
            f"{name:28s}  {result.mean_connectivity:>12.3f}  "
            f"{near:>20d} / {config.population}"
        )
    print()
    print(
        "attraction pulls ants toward gateways (higher 'near' count); "
        "repulsive footprints spread agents out, which is what keeps the "
        "whole network's routing tables fresh."
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 1)
