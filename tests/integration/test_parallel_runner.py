"""Integration: the process-pool runner is bit-identical to serial."""

import multiprocessing

import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import (
    RunDefaults,
    clear_topology_cache,
    run_mapping_variants,
    run_routing_variants,
)
from repro.mapping.world import MappingWorldConfig
from repro.net.generator import GeneratorConfig
from repro.routing.world import RoutingWorldConfig

MAPPING_NET = GeneratorConfig(
    node_count=30, target_edges=None, require_strong_connectivity=True
)
ROUTING_NET = GeneratorConfig(
    node_count=40,
    target_edges=None,
    require_strong_connectivity=False,
    gateway_count=3,
    mobile_fraction=0.5,
)


@pytest.fixture(autouse=True)
def fresh_topology_cache():
    clear_topology_cache()
    yield
    clear_topology_cache()


class TestParallelMapping:
    def test_matches_serial(self):
        variants = {
            "a": MappingWorldConfig(population=3, max_steps=2000),
            "b": MappingWorldConfig(population=3, stigmergic=True, max_steps=2000),
        }
        serial = run_mapping_variants(MAPPING_NET, variants, runs=4, master_seed=5)
        clear_topology_cache()
        parallel = run_mapping_variants(
            MAPPING_NET, variants, runs=4, master_seed=5, workers=2
        )
        for name in variants:
            assert serial[name].finishing_times == parallel[name].finishing_times
            assert [r.average_knowledge for r in serial[name].results] == [
                r.average_knowledge for r in parallel[name].results
            ]

    def test_progress_counts_tasks(self):
        calls = []
        run_mapping_variants(
            MAPPING_NET,
            {"a": MappingWorldConfig(population=2, max_steps=2000)},
            runs=3,
            master_seed=5,
            progress=lambda s, d, t: calls.append((s, d, t)),
            workers=2,
        )
        assert calls == [("mapping", 1, 3), ("mapping", 2, 3), ("mapping", 3, 3)]


class TestParallelRouting:
    def test_matches_serial(self):
        variants = {
            "oldest": RoutingWorldConfig(
                population=8, total_steps=40, converged_after=20
            ),
            "random": RoutingWorldConfig(
                agent_kind="random", population=8, total_steps=40, converged_after=20
            ),
        }
        serial = run_routing_variants(ROUTING_NET, variants, runs=3, master_seed=6)
        parallel = run_routing_variants(
            ROUTING_NET, variants, runs=3, master_seed=6, workers=2
        )
        for name in variants:
            assert [r.connectivity for r in serial[name].results] == [
                r.connectivity for r in parallel[name].results
            ]


class TestWorkerValidation:
    def test_invalid_worker_count(self):
        with pytest.raises(ConfigurationError):
            RunDefaults(workers=0)
        with pytest.raises(ConfigurationError):
            run_routing_variants(
                ROUTING_NET,
                {"a": RoutingWorldConfig(population=2, total_steps=5, converged_after=2)},
                runs=1,
                master_seed=1,
                workers=0,
            )

    def test_workers_capped_at_cpu_count(self):
        from repro.experiments.runner import _resolve_workers

        assert _resolve_workers(10_000) == max(2, multiprocessing.cpu_count())
