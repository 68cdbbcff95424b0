"""Golden digests of mapping runs over the branches the paper sweep skips.

Each case runs one seeded :class:`~repro.mapping.world.MappingWorld` on
the same small static network and hashes the simulated statistics the
benchmark's reference digests cover: finishing time, steps simulated,
the knowledge series, meetings and the overhead counters.  The channel
statistics and the final footprint boards are hashed too, so an
optimisation that skips a hop protocol call must still count every
attempt.

The digests were recorded before the mapping step was optimised and
pin its outputs bit for bit.  A digest that no longer matches means the
simulation changed; never re-record one to make a change pass.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.faults.plan import parse_fault_plan
from repro.mapping.world import MappingWorld, MappingWorldConfig
from repro.net.channel import ChannelConfig
from repro.net.generator import GeneratorConfig, NetworkGenerator
from repro.net.health import HealthConfig
from repro.obs.collector import ObsConfig
from repro.traffic.plane import TrafficConfig

SEED = 11
POPULATION = 4
MAX_STEPS = 400


def _network():
    config = GeneratorConfig(
        node_count=30,
        target_edges=None,
        range_heterogeneity=0.3,
        require_strong_connectivity=True,
    )
    return NetworkGenerator(config, seed=99).generate_static()


def _first_edge(topology):
    return min(topology.edge_set())


def _config(**overrides) -> MappingWorldConfig:
    settings = dict(population=POPULATION, max_steps=MAX_STEPS)
    settings.update(overrides)
    return MappingWorldConfig(**settings)


def _faulted(topology) -> MappingWorldConfig:
    source, destination = _first_edge(topology)
    link = f"{source}-{destination}"
    plan = parse_fault_plan(
        f"blackout@3:{link};crash@6:21;crash@6:28;recover@30:21;"
        f"restore@40:{link};recover@45:28;policy=respawn"
    )
    return _config(fault_plan=plan)


def _bursty(topology) -> MappingWorldConfig:
    del topology
    return _config(fault_plan=parse_fault_plan("lossburst@4:0:0.7;lossclear@50:0"))


def _gray(topology) -> MappingWorldConfig:
    del topology
    return _config(
        fault_plan=parse_fault_plan("grayfail@2:3:0.9;grayfail@2:5:0.9"),
        traffic=TrafficConfig(rate=0.5, router="epidemic"),
    )


#: case name -> config builder (the topology is passed for edge-aware plans).
CASES = {
    "lossy-retries": lambda t: _config(
        channel=ChannelConfig(loss=0.3, hop_retries=2, backoff_base=2, backoff_cap=4)
    ),
    "lossy-distance-stigmergic": lambda t: _config(
        stigmergic=True,
        agent_kind="super-conscientious",
        channel=ChannelConfig(distance_factor=0.5, hop_retries=1),
    ),
    "crash-respawn-blackout": _faulted,
    "loss-burst": _bursty,
    "gray-epidemic": _gray,
    "health": lambda t: _config(
        health=HealthConfig(), channel=ChannelConfig(loss=0.2)
    ),
    "degrade": lambda t: _config(degrade_at=8, degrade_fraction=0.5, degrade_amount=0.6),
    "epsilon": lambda t: _config(epsilon=0.2, stigmergic=True),
    "no-cooperation": lambda t: _config(cooperation=False),
    "obs": lambda t: _config(
        obs=ObsConfig(metrics=True, events=True, profile=True), stigmergic=True
    ),
    "epidemic-traffic": lambda t: _config(
        traffic=TrafficConfig(rate=0.5, router="epidemic")
    ),
    "random/plain": lambda t: _config(agent_kind="random"),
    "random/stigmergic": lambda t: _config(agent_kind="random", stigmergic=True),
    "conscientious/plain": lambda t: _config(agent_kind="conscientious"),
    "conscientious/stigmergic": lambda t: _config(
        agent_kind="conscientious", stigmergic=True
    ),
    "super-conscientious/plain": lambda t: _config(agent_kind="super-conscientious"),
    "super-conscientious/stigmergic": lambda t: _config(
        agent_kind="super-conscientious", stigmergic=True
    ),
}

#: case name -> digest, recorded before the mapping step was optimised.
GOLDEN = {
    "conscientious/plain": "5dd956d478884ae5",
    "conscientious/stigmergic": "d7b046eaad95a81e",
    "crash-respawn-blackout": "820cb8d9ace9340c",
    "degrade": "6dfc680eb7b950c6",
    "epidemic-traffic": "7113cb4378b8f015",
    "epsilon": "cc58e80d81b0852c",
    "gray-epidemic": "9c4f3c9eda7ddf4d",
    "health": "40cf44f7dc360de3",
    "loss-burst": "6a94e0faebfda759",
    "lossy-distance-stigmergic": "b2ce6a87d6ff0923",
    "lossy-retries": "ccf7eeacadcac85f",
    "no-cooperation": "1923a39605f5f6e6",
    "obs": "d7b046eaad95a81e",
    "random/plain": "854e3e2b3f4ca442",
    "random/stigmergic": "af37a84c1ce5b8f6",
    "super-conscientious/plain": "819d9aee65a6a646",
    "super-conscientious/stigmergic": "065d2491ebc907dd",
}


def _statistics(world: MappingWorld, result) -> tuple:
    channel = world.channel.stats
    footprints = [
        (node, [(mark.agent, mark.target, mark.time) for mark in board.all_marks()])
        for node, board in world.field.items()
    ]
    return (
        result.finishing_time,
        result.steps_simulated,
        result.average_knowledge,
        result.minimum_knowledge,
        result.meetings,
        sorted(result.overhead.items()),
        (channel.attempts, channel.losses, sorted(channel.losses_by_kind.items())),
        footprints,
    )


def _digest(name: str) -> str:
    topology = _network()
    world = MappingWorld(topology, CASES[name](topology), SEED)
    result = world.run()
    text = repr(_statistics(world, result))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(CASES))
def test_mapping_run_matches_golden_digest(name):
    assert _digest(name) == GOLDEN[name]


def test_every_case_has_a_digest():
    assert sorted(GOLDEN) == sorted(CASES)
