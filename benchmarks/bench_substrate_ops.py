"""Micro-benchmarks of the hot substrate operations.

These are the per-step costs every experiment pays: topology refresh
under mobility, the connectivity metric, knowledge merging in meetings,
footprint filtering, the routing world step and route-table churn, each
beside its oracle where it has one.  The workloads are the registry of
``scripts/bench_baseline.py`` at full scale; this file only hands each
one to ``pytest-benchmark``.
"""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "scripts"))
from bench_baseline import WORKLOADS  # noqa: E402 - needs the path above


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_substrate_workload(benchmark, name):
    benchmark(WORKLOADS[name]("full"))
