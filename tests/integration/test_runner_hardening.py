"""Integration: the hardened runner survives slow, failing, and dying tasks.

Covers the per-task timeout + bounded retry, worker-crash isolation
(one poisoned (variant, run) cannot sink the pool sweep), the
checkpoint journal that lets an interrupted sweep resume, and the
LRU bound on the static-topology cache.
"""

import os
import pathlib
import time

import pytest

from repro.errors import ExperimentError
from repro.experiments import runner
from repro.experiments.persistence import SweepCheckpoint
from repro.experiments.runner import (
    TOPOLOGY_CACHE_LIMIT,
    _run_tasks,
    _static_topology,
    _topology_cache,
    clear_topology_cache,
    run_mapping_variants,
    run_routing_variants,
)
from repro.faults.plan import parse_fault_plan
from repro.mapping.world import MappingWorldConfig
from repro.net.generator import GeneratorConfig
from repro.routing.world import RoutingWorldConfig

ROUTING_NET = GeneratorConfig(
    node_count=30,
    target_edges=None,
    require_strong_connectivity=False,
    gateway_count=2,
    mobile_fraction=0.5,
)
MAPPING_NET = GeneratorConfig(
    node_count=25, target_edges=None, require_strong_connectivity=True
)


@pytest.fixture(autouse=True)
def fresh_topology_cache():
    clear_topology_cache()
    yield
    clear_topology_cache()


def _task(name, run_index, payload=None):
    """A synthetic task tuple; _run_tasks only reads slots 0 and 5."""
    return (name, payload, None, 0, 0, run_index)


# --- top-level task functions (pool workers must be able to pickle them) ---


def _echo_task(task):
    return task[0], task[5], f"ok-{task[5]}"


def _fail_until_marker_task(task):
    marker = pathlib.Path(task[1]) / f"tried-{task[0]}-{task[5]}"
    if not marker.exists():
        marker.write_text("")
        raise RuntimeError("first attempt fails")
    return task[0], task[5], "recovered"


def _always_fail_task(task):
    if task[0] == "poisoned":
        raise RuntimeError("this task never succeeds")
    return task[0], task[5], "fine"


def _hang_until_marker_task(task):
    marker = pathlib.Path(task[1]) / f"slow-{task[0]}-{task[5]}"
    if not marker.exists():
        marker.write_text("")
        time.sleep(60)  # deadline fires long before this returns
    return task[0], task[5], "fast-second-try"


def _die_until_marker_task(task):
    marker = pathlib.Path(task[1]) / f"died-{task[0]}-{task[5]}"
    if not marker.exists():
        marker.write_text("")
        os._exit(1)  # hard worker crash: Pool never completes this job
    return task[0], task[5], "after-crash"


class TestRetries:
    def test_serial_retry_recovers(self, tmp_path):
        tasks = [_task("a", 0, str(tmp_path)), _task("a", 1, str(tmp_path))]
        out = list(
            _run_tasks(tasks, _fail_until_marker_task, 1, None, "t", retries=1)
        )
        assert sorted(out) == [("a", 0, "recovered"), ("a", 1, "recovered")]

    def test_serial_no_retries_fails_but_keeps_siblings(self, tmp_path):
        tasks = [_task("ok", 0), _task("poisoned", 1), _task("ok", 2)]
        got = []
        with pytest.raises(ExperimentError, match="poisoned.*run 1"):
            for item in _run_tasks(tasks, _always_fail_task, 1, None, "t", retries=0):
                got.append(item)
        assert sorted(got) == [("ok", 0, "fine"), ("ok", 2, "fine")]

    def test_pool_retry_recovers(self, tmp_path):
        tasks = [_task("a", i, str(tmp_path)) for i in range(3)]
        out = list(
            _run_tasks(tasks, _fail_until_marker_task, 2, None, "t", retries=1)
        )
        assert sorted(r for __, __, r in out) == ["recovered"] * 3

    def test_pool_poisoned_task_isolated(self):
        tasks = [_task("ok", 0), _task("poisoned", 1), _task("ok", 2)]
        got = []
        with pytest.raises(ExperimentError, match="failed permanently"):
            for item in _run_tasks(
                tasks, _always_fail_task, 2, None, "t", retries=1
            ):
                got.append(item)
        assert sorted(got) == [("ok", 0, "fine"), ("ok", 2, "fine")]


class TestTimeouts:
    def test_overdue_task_resubmitted(self, tmp_path):
        tasks = [_task("slow", 0, str(tmp_path))]
        out = list(
            _run_tasks(
                tasks, _hang_until_marker_task, 2, None, "t",
                timeout=1.0, retries=1,
            )
        )
        assert out == [("slow", 0, "fast-second-try")]

    def test_overdue_task_without_retries_is_a_failure(self, tmp_path):
        (tmp_path / "slow-quick-1").write_text("")  # quick returns at once
        tasks = [_task("slow", 0, str(tmp_path)), _task("quick", 1, str(tmp_path))]
        got = []
        with pytest.raises(ExperimentError, match="no result within"):
            for item in _run_tasks(
                tasks, _hang_until_marker_task, 2, None, "t",
                timeout=1.0, retries=0,
            ):
                got.append(item)
        assert ("quick", 1, "fast-second-try") in got

    def test_worker_hard_crash_detected_and_retried(self, tmp_path):
        # os._exit(1) kills the worker outright; the Pool respawns the
        # process but silently never finishes the job, so the deadline
        # doubles as the crash detector.
        tasks = [_task("crashy", 0, str(tmp_path)), _task("crashy", 1, str(tmp_path))]
        out = list(
            _run_tasks(
                tasks, _die_until_marker_task, 2, None, "t",
                timeout=2.0, retries=1,
            )
        )
        assert sorted(out) == [("crashy", 0, "after-crash"), ("crashy", 1, "after-crash")]


class TestCheckpointResume:
    VARIANTS = {
        "a": RoutingWorldConfig(population=5, total_steps=20, converged_after=10)
    }

    @pytest.mark.parametrize("scenario", ["mapping", "routing"])
    def test_interrupted_sweep_resumes_without_recomputing(
        self, tmp_path, monkeypatch, scenario
    ):
        # A fault plan fills the resilience report too, so the whole
        # result — every field the journal codec carries — is compared.
        faults = parse_fault_plan("crash@5:3;recover@12:3;policy=respawn")
        if scenario == "mapping":
            sweep = run_mapping_variants
            net = MAPPING_NET
            variants = {
                "a": MappingWorldConfig(population=4, max_steps=400, fault_plan=faults)
            }
        else:
            sweep = run_routing_variants
            net = ROUTING_NET
            variants = {
                "a": RoutingWorldConfig(
                    population=5,
                    total_steps=20,
                    converged_after=10,
                    visiting=True,
                    fault_plan=faults,
                )
            }
        first = sweep(net, variants, runs=2, master_seed=4, checkpoint_dir=tmp_path)
        # Same command again, but the task function now explodes: every
        # result must come from the journal, so nothing actually runs.
        def exploding_task(task):
            raise AssertionError("checkpointed task was recomputed")

        monkeypatch.setattr(runner, f"_{scenario}_task", exploding_task)
        again = sweep(net, variants, runs=2, master_seed=4, checkpoint_dir=tmp_path)
        assert first["a"].results[0].resilience is not None
        assert again["a"].results == first["a"].results

    def test_growing_runs_only_computes_the_new_ones(self, tmp_path, monkeypatch):
        run_routing_variants(
            ROUTING_NET, self.VARIANTS, runs=2, master_seed=4, checkpoint_dir=tmp_path
        )
        computed = []
        real_task = runner._routing_task

        def counting_task(task):
            computed.append(task[5])
            return real_task(task)

        monkeypatch.setattr(runner, "_routing_task", counting_task)
        grown = run_routing_variants(
            ROUTING_NET, self.VARIANTS, runs=3, master_seed=4, checkpoint_dir=tmp_path
        )
        assert computed == [2]  # runs 0 and 1 came from the journal
        assert len(grown["a"].results) == 3

    def test_changed_config_rejects_stale_checkpoint(self, tmp_path):
        run_routing_variants(
            ROUTING_NET, self.VARIANTS, runs=1, master_seed=4, checkpoint_dir=tmp_path
        )
        other = {
            "a": RoutingWorldConfig(population=6, total_steps=20, converged_after=10)
        }
        # A different config hashes to a different fingerprint, hence a
        # different journal file — no collision, a fresh sweep.
        run_routing_variants(
            ROUTING_NET, other, runs=1, master_seed=4, checkpoint_dir=tmp_path
        )
        assert len(list(pathlib.Path(tmp_path).glob("routing-*.jsonl"))) == 2

    def test_torn_trailing_line_tolerated(self, tmp_path):
        run_routing_variants(
            ROUTING_NET, self.VARIANTS, runs=2, master_seed=4, checkpoint_dir=tmp_path
        )
        journal = next(pathlib.Path(tmp_path).glob("routing-*.jsonl"))
        torn = journal.read_text()[:-40]  # kill landed mid-write
        journal.write_text(torn)
        resumed = run_routing_variants(
            ROUTING_NET, self.VARIANTS, runs=2, master_seed=4, checkpoint_dir=tmp_path
        )
        assert len(resumed["a"].results) == 2

    def test_fingerprint_mismatch_raises(self, tmp_path):
        path = tmp_path / "x.jsonl"
        SweepCheckpoint(path, "routing", "aaaa")
        with pytest.raises(ExperimentError, match="different sweep"):
            SweepCheckpoint(path, "routing", "bbbb")


class TestTopologyCacheLRU:
    def test_cache_is_bounded(self):
        config = GeneratorConfig(node_count=5, target_edges=None,
                                 require_strong_connectivity=False)
        for seed in range(TOPOLOGY_CACHE_LIMIT + 4):
            _static_topology(config, seed, reusable=True)
        assert len(_topology_cache) == TOPOLOGY_CACHE_LIMIT
        # The oldest entries were evicted, the newest survive.
        cached_seeds = {key[1] for key in _topology_cache}
        assert cached_seeds == set(range(4, TOPOLOGY_CACHE_LIMIT + 4))

    def test_hit_refreshes_recency(self):
        config = GeneratorConfig(node_count=5, target_edges=None,
                                 require_strong_connectivity=False)
        for seed in range(TOPOLOGY_CACHE_LIMIT):
            _static_topology(config, seed, reusable=True)
        _static_topology(config, 0, reusable=True)  # touch the oldest
        _static_topology(config, TOPOLOGY_CACHE_LIMIT, reusable=True)  # evicts
        assert (config, 0) in _topology_cache
        assert (config, 1) not in _topology_cache
