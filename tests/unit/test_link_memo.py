"""Unit tests for the link memo the copies of one MANET blueprint share.

A kept :class:`~repro.net.generator.ManetBlueprint` holds one
:class:`~repro.net.topology.LinkMemo`: its copies look up the refresh's
edge set and the reference sweep of each state there before computing
them.  Both computations go through one lookup: the topology's last run
if its inputs are byte-for-byte equal, then the memo, then the
computation.  These tests check that a hit never changes an edge set or
hides a violation, that a digest collision cannot serve the wrong
state, that a path one copy walks stores no arrays and builds one state
per refresh, that unchanged inputs compute nothing, that the byte cap
holds, and that only kept blueprints have a memo.
"""

import dataclasses
import sys
import threading

import numpy as np
import pytest

from repro.faults.plan import parse_fault_plan
from repro.net import topology as topology_module
from repro.net.generator import (
    GeneratorConfig,
    NetworkGenerator,
    clear_blueprint_cache,
    generate_mapping_network,
    manet_blueprint,
)
from repro.net.geometry import Arena, Point
from repro.net.node import Node
from repro.net.radio import HeterogeneousRange
from repro.net.topology import Topology, _sweep_edges
from repro.routing.world import RoutingWorld, RoutingWorldConfig

SMALL = GeneratorConfig(
    node_count=40,
    target_edges=None,
    range_heterogeneity=0.25,
    require_strong_connectivity=False,
    gateway_count=4,
    mobile_fraction=0.5,
)

SEED = 11
STEPS = 12


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_blueprint_cache()
    yield
    clear_blueprint_cache()


def copies(count):
    """``count`` copies of the kept blueprint, and its memo."""
    blueprint = manet_blueprint(SMALL, SEED)
    return [blueprint.topology() for __ in range(count)], blueprint.memo


def walk(topology, steps=STEPS, faults=None):
    """Step ``topology``, checked every step; its packed edges per step."""
    path = []
    for step in range(steps):
        topology.advance()
        if faults is not None:
            faults(topology, step)
        topology.adjacency_view()[0]  # serve a row, so rows are checked too
        assert topology.consistency_problems() == []
        path.append(topology.packed_edges().tolist())
    return path


def crash_shock_blackout(topology, step):
    if step == 3:
        topology.set_node_down(7)
    if step == 5:
        topology.node(30).battery.shock(0.6)
        topology.invalidate()
    if step == 6:
        u, v = next(topology.edges())
        topology.block_edge(u, v)
    if step == 9:
        topology.set_node_up(7)


def stored_runs(memo):
    return [run for table in (memo.engine, memo.oracle) for runs in table.values() for run in runs or ()]


class TestWhoHasAMemo:
    def test_only_copies_of_a_kept_blueprint_share_one(self):
        (a, b), memo = copies(2)
        assert memo is not None
        assert a._memo is memo and b._memo is memo

    def test_generated_static_and_hand_built_topologies_have_none(self):
        assert NetworkGenerator(SMALL, SEED).generate_manet()._memo is None
        mapping = generate_mapping_network(
            3, GeneratorConfig(node_count=30, target_edges=90, gateway_count=2)
        )
        assert mapping._memo is None
        hand = Topology([Node(0, Point(1.0, 1.0), HeterogeneousRange(5.0))], Arena(10, 10))
        assert hand._memo is None


class TestHits:
    def test_hits_return_what_a_fresh_copy_computes(self):
        reference = walk(NetworkGenerator(SMALL, SEED).generate_manet())
        topologies, memo = copies(4)
        for topology in topologies:
            assert walk(topology) == reference
        assert len(memo.engine) == len(memo.oracle) == STEPS
        assert all(len(runs) == 1 for runs in memo.engine.values())

    def test_a_phantom_edge_is_flagged_while_the_oracle_hits(self):
        (first, second, planted), memo = copies(3)
        walk(first)  # sights every state
        walk(second)  # stores every state
        walk(planted, STEPS - 1)
        planted.advance()
        n = planted.node_count
        u, v = next((u, v) for u in range(n) for v in range(n) if u != v and not planted.has_edge(u, v))
        edges = set(planted.packed_edges().tolist()) | {u * n + v}
        planted._edges = np.array(sorted(edges), dtype=np.int64)
        assert planted.consistency_problems() == [f"packed edge array has phantom edge {u}->{v}"]
        assert planted._oracle_run is second._oracle_run  # the stored sweep

    def test_a_constant_digest_keeps_states_apart(self, monkeypatch):
        monkeypatch.setattr(topology_module, "_state_digest", lambda *inputs: b"\0" * 16)
        reference = walk(NetworkGenerator(SMALL, SEED).generate_manet())
        topologies, memo = copies(3)
        for topology in topologies:
            assert walk(topology) == reference
        assert list(memo.engine) == list(memo.oracle) == [b"\0" * 16]
        assert len(memo.engine[b"\0" * 16]) == len(memo.oracle[b"\0" * 16]) == STEPS


class TestStorage:
    def test_a_path_one_copy_walks_stores_no_arrays(self):
        (topology,), memo = copies(1)
        walk(topology)
        assert len(memo.engine) == len(memo.oracle) == STEPS
        assert stored_runs(memo) == []
        assert memo.nbytes == 2 * STEPS * topology_module._SIGHTING_BYTES

    def test_an_unchecked_path_builds_one_state_a_refresh(self, monkeypatch):
        blueprint = manet_blueprint(SMALL, SEED)
        built = []
        state_bytes = topology_module._state_bytes
        monkeypatch.setattr(
            topology_module, "_state_bytes", lambda *inputs: built.append(1) or state_bytes(*inputs)
        )
        topology = blueprint.topology()
        assert len(built) == 1  # the adopted edges' state
        for __ in range(STEPS):
            topology.advance()
            topology.packed_edges()
        assert len(built) == 1 + STEPS
        memo = blueprint.memo
        assert len(memo.engine) == STEPS and not memo.oracle
        assert stored_runs(memo) == []

    def test_stored_arrays_are_read_only(self):
        (a, b, c), memo = copies(3)
        for topology in (a, b, c):
            walk(topology)
        runs = stored_runs(memo)
        assert len(runs) == 2 * STEPS
        for run in runs:
            assert not run.edges.flags.writeable
            with pytest.raises(ValueError):
                run.edges[:1] = 0
        assert not c.packed_edges().flags.writeable  # served from the memo

    def test_the_cap_holds(self):
        (first, *others), memo = copies(4)
        # Room for every sighting and a few stored states, not all.
        memo.limit = 2 * 4 * STEPS * topology_module._SIGHTING_BYTES + 20 * 1024
        reference = walk(first, 4 * STEPS)
        for topology in others:
            assert walk(topology, 4 * STEPS) == reference
        assert memo.nbytes <= memo.limit
        assert 0 < len(stored_runs(memo)) < 2 * 4 * STEPS
        held = (len(memo.engine) + len(memo.oracle)) * topology_module._SIGHTING_BYTES
        for table in (memo.engine, memo.oracle):
            for runs in table.values():
                held += sum(run.nbytes(rows=table is memo.oracle) for run in runs or ())
        assert memo.nbytes == held

    def test_a_run_counts_at_least_what_it_holds(self):
        (a, b), memo = copies(2)
        walk(a)
        walk(b)
        for runs in memo.oracle.values():
            (run,) = runs
            bounds, targets = run.csr
            held = sys.getsizeof(run.state) + run.edges.nbytes
            held += sys.getsizeof(bounds) + sys.getsizeof(targets)
            held += sum(sys.getsizeof(i) for i in bounds + targets if i > 256)
            assert run.nbytes(rows=True) >= held


class TestLookup:
    """The refresh and the oracle compute only inputs no run holds yet."""

    @staticmethod
    def counted(monkeypatch):
        calls = {"_kernel_edges": 0, "_sweep_edges": 0}
        for name in calls:
            compute = getattr(topology_module, name)

            def counting(*inputs, name=name, compute=compute):
                calls[name] += 1
                return compute(*inputs)

            monkeypatch.setattr(topology_module, name, counting)
        return calls

    def test_unchanged_inputs_run_neither_computation(self, monkeypatch):
        topology = NetworkGenerator(SMALL, SEED).generate_manet()
        assert topology._memo is None
        walk(topology, 2)
        edges = topology.packed_edges()
        calls = self.counted(monkeypatch)
        topology.set_node_down(7)
        topology.set_node_up(7)  # crash then recover before the next read
        assert topology.consistency_problems() == []
        topology.invalidate()  # a bare invalidate
        assert topology.consistency_problems() == []
        assert calls == {"_kernel_edges": 0, "_sweep_edges": 0}
        assert topology.packed_edges() is edges

    def test_a_full_rebuild_is_the_engine_run_of_its_inputs(self, monkeypatch):
        topology = NetworkGenerator(SMALL, SEED).generate_manet()
        walk(topology, 2)
        calls = self.counted(monkeypatch)
        topology.force_full_rebuild()
        topology.invalidate()
        topology.packed_edges()
        assert calls == {"_kernel_edges": 0, "_sweep_edges": 1}
        topology.advance()
        topology.packed_edges()
        assert calls == {"_kernel_edges": 1, "_sweep_edges": 1}


class TestFaultsDiverge:
    def test_faulted_and_unfaulted_copies_each_match_a_fresh_copy(self):
        plain = walk(NetworkGenerator(SMALL, SEED).generate_manet())
        faulted = walk(NetworkGenerator(SMALL, SEED).generate_manet(), faults=crash_shock_blackout)
        assert faulted != plain
        topologies, memo = copies(5)
        for index, topology in enumerate(topologies):
            if index % 2:
                assert walk(topology) == plain
            else:
                assert walk(topology, faults=crash_shock_blackout) == faulted
        assert len(memo.engine) > STEPS  # the faulted states are apart

    def test_checked_faulted_and_unfaulted_worlds_match_fresh_worlds(self):
        config = RoutingWorldConfig(
            population=5, total_steps=30, converged_after=15, check_invariants=True
        )
        faulted = dataclasses.replace(
            config, fault_plan=parse_fault_plan("crash@5:3;shock@8:20:0.6;recover@15:3")
        )

        def fresh(world_config):
            topology = NetworkGenerator(SMALL, SEED).generate_manet()
            return RoutingWorld(topology, world_config, 3).run()

        expected = [fresh(faulted), fresh(config)]
        for __ in range(2):
            for world_config, result in zip((faulted, config), expected):
                topology = manet_blueprint(SMALL, SEED).topology()
                assert RoutingWorld(topology, world_config, 3).run() == result


def test_copies_stepped_on_threads_share_the_memo_soundly():
    # More threads than cores, switching often: a lost update would show
    # as a wrong path, a state stored twice or a byte count off its runs.
    reference = walk(NetworkGenerator(SMALL, SEED).generate_manet())
    topologies, memo = copies(6)
    paths = [None] * len(topologies)

    def step(index):
        paths[index] = walk(topologies[index])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=step, args=(i,)) for i in range(len(topologies))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert paths == [reference] * len(topologies)
    held = (len(memo.engine) + len(memo.oracle)) * topology_module._SIGHTING_BYTES
    for table in (memo.engine, memo.oracle):
        for runs in table.values():
            states = [run.state for run in runs or ()]
            assert len(states) == len(set(states))
            held += sum(run.nbytes(rows=table is memo.oracle) for run in runs or ())
    assert memo.nbytes == held


def test_the_sweep_runs_on_the_inputs_it_stores():
    # The oracle's stored state is the bytes of its own reads.
    (a, b), memo = copies(2)
    walk(a, 1)
    walk(b, 1)
    (key,) = memo.oracle
    (run,) = memo.oracle[key]
    x, y, r = b._read_inputs()
    assert run.state == x.tobytes() + y.tobytes() + r.tobytes()
    assert run.edges.tolist() == _sweep_edges(x, y, r, set(), set()).tolist()
