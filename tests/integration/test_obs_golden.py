"""Golden digests of the observability content of two fully observed runs.

With every obs layer on, a run's metrics snapshot and event stream are
pure functions of its seeds.  Each case runs one seeded world with
metrics, events and the profiler on and hashes ``result.obs.metrics``
and ``result.obs.events``; the profile is wall-clock time and is not
hashed.  The routing case is faulted, lossy, carries traffic and runs
the health monitor, so the per-step channel-loss, topology-churn,
connectivity, traffic, health and fault event kinds all appear; the
mapping case is faulted.

A digest that no longer matches means the recorded counters or the
order of the event stream changed; never re-record one to make a
change pass.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.faults.plan import parse_fault_plan
from repro.mapping.world import MappingWorld, MappingWorldConfig
from repro.net.channel import ChannelConfig
from repro.net.generator import GeneratorConfig, NetworkGenerator
from repro.net.health import HealthConfig
from repro.obs.collector import ObsConfig
from repro.routing.world import RoutingWorld, RoutingWorldConfig
from repro.traffic.plane import TrafficConfig

FULL_OBS = ObsConfig(metrics=True, events=True, profile=True)


def _routing_result():
    network = GeneratorConfig(
        node_count=40,
        target_edges=None,
        require_strong_connectivity=False,
        gateway_count=3,
        mobile_fraction=0.5,
    )
    topology = NetworkGenerator(network, 11).generate_manet()
    config = RoutingWorldConfig(
        population=10,
        visiting=True,
        total_steps=40,
        converged_after=10,
        fault_plan=parse_fault_plan("crash@8:5;crash@8:9;recover@25:5;policy=respawn"),
        channel=ChannelConfig(loss=0.15),
        traffic=TrafficConfig(rate=0.5),
        health=HealthConfig(),
        obs=FULL_OBS,
    )
    return RoutingWorld(topology, config, 13).run()


def _mapping_result():
    network = GeneratorConfig(
        node_count=30,
        target_edges=None,
        range_heterogeneity=0.3,
        require_strong_connectivity=True,
    )
    topology = NetworkGenerator(network, seed=99).generate_static()
    source, destination = min(topology.edge_set())
    plan = parse_fault_plan(
        f"blackout@3:{source}-{destination};crash@6:21;recover@30:21;"
        f"restore@40:{source}-{destination};policy=respawn"
    )
    config = MappingWorldConfig(
        population=4, max_steps=400, fault_plan=plan, obs=FULL_OBS
    )
    return MappingWorld(topology, config, 11).run()


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


CASES = {
    "routing-faulted-lossy-traffic-health": _routing_result,
    "mapping-faulted": _mapping_result,
}

#: case -> (metrics digest, events digest), recorded before the world
#: scaffolding was shared between the two scenarios.
GOLDEN = {
    "routing-faulted-lossy-traffic-health": ("cf90a3a91f3fb32b", "73c2d5e42fc4826d"),
    "mapping-faulted": ("45d8058bce5d8563", "b9d40314b97b4ba2"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_obs_content_matches_golden(case):
    result = CASES[case]()
    obs = result.obs
    assert obs is not None and obs.profile is not None
    assert obs.events_dropped == 0
    assert (_digest(obs.metrics), _digest(obs.events)) == GOLDEN[case]

