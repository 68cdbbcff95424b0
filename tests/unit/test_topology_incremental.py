"""Unit tests for the incremental topology engine.

Every test that exercises the maintained adjacency runs under both
evaluations of the link kernel — ``vector`` forces the dense all-pairs
block, ``grid`` the sorted column grid — and checks the result against a
twin of the same network rebuilt by the reference sweep
(:meth:`Topology.force_full_rebuild`) after every change.  The kernel picks its
evaluation from the pair count alone, so the tests force one by moving
the crossover constant.
"""

import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import repro.net.topology as topology_module
from repro.errors import TopologyError
from repro.net.generator import GeneratorConfig, NetworkGenerator, generate_manet_network
from repro.net.geometry import Arena, Point
from repro.net.manual import fixed_topology
from repro.net.node import Node
from repro.net.radio import FixedRange, HeterogeneousRange
from repro.net.topology import AdjacencyView, Topology

#: crossover settings that force one kernel evaluation at any size.
EVALUATIONS = {"vector": 1 << 62, "grid": 0}

SMALL_MANET = GeneratorConfig(
    node_count=40,
    target_edges=None,
    range_heterogeneity=0.25,
    require_strong_connectivity=False,
    gateway_count=4,
    mobile_fraction=0.5,
)


@pytest.fixture(params=sorted(EVALUATIONS, reverse=True))
def evaluation(request, monkeypatch):
    monkeypatch.setattr(topology_module, "_DENSE_MAX_PAIRS", EVALUATIONS[request.param])
    return request.param


def manet(seed):
    return generate_manet_network(seed, SMALL_MANET)


def refresh(topology, twin):
    """Refresh ``topology`` through the link kernel, ``twin`` through the sweep."""
    topology.recompute()
    twin.force_full_rebuild()


def assert_same_graph(incremental, naive):
    assert incremental.edge_set() == naive.edge_set()
    assert incremental.consistency_problems() == []
    packed = incremental.packed_edges()
    n = incremental.node_count
    for node in incremental.node_ids:
        row = packed[(packed >= node * n) & (packed < (node + 1) * n)] - node * n
        assert row.tolist() == incremental.out_neighbors(node)


@pytest.mark.usefixtures("evaluation")
class TestIncrementalMatchesNaive:
    def test_mobility_steps(self):
        topology, twin = manet(11), manet(11)
        for __ in range(25):
            topology.advance()
            twin.advance()
            refresh(topology, twin)
            assert_same_graph(topology, twin)

    def test_crash_and_recover(self):
        topology, twin = manet(12), manet(12)
        for step in range(20):
            for t in (topology, twin):
                t.advance()
                if step == 4:
                    t.set_node_down(3)
                if step == 7:
                    t.set_node_down(9)
                if step == 12:
                    t.set_node_up(3)
                if step == 16:
                    t.set_node_up(9)
            refresh(topology, twin)
            assert_same_graph(topology, twin)
        assert not topology.is_down(3) and not topology.is_down(9)

    def test_blocked_edges(self):
        topology, twin = manet(13), manet(13)
        refresh(topology, twin)
        edges = sorted(topology.edge_set())[:6]
        for step in range(15):
            for t in (topology, twin):
                t.advance()
                if step == 2:
                    for edge in edges:
                        t.block_edge(*edge)
                if step == 9:
                    for edge in edges[::2]:
                        t.unblock_edge(*edge)
            refresh(topology, twin)
            assert_same_graph(topology, twin)

    def test_down_node_has_no_edges(self):
        topology = manet(14)
        topology.recompute()
        topology.set_node_down(5)
        topology.recompute()
        assert topology.out_neighbors(5) == []
        assert topology.in_neighbors(5) == []
        assert topology.consistency_problems() == []

    def test_force_full_rebuild_resets_state(self):
        topology = manet(15)
        for __ in range(5):
            topology.advance()
            topology.recompute()
        topology.force_full_rebuild()
        topology.advance()
        topology.recompute()
        assert topology.consistency_problems() == []

    def test_degrade_then_restore_grows_ranges(self):
        # Degradation replaces the fraction rather than compounding it,
        # so restoring it grows ranges back: a grid sized from an
        # earlier (smaller) maximum range would now drop edges.
        topology, twin = manet(16), manet(16)
        static = [
            node.node_id
            for node in topology.nodes
            if isinstance(node.radio, HeterogeneousRange)
        ][:10]
        for step, fraction in enumerate((0.5, 0.9, 0.0, 0.3, 0.0)):
            for t in (topology, twin):
                t.advance()
                for node_id in static:
                    t.node(node_id).radio.degrade(fraction)
                t.invalidate()
            refresh(topology, twin)
            assert_same_graph(topology, twin)

    def test_concurrent_threads_get_separate_scratch(self):
        # A caller may step worlds on threads of one process, so several
        # topologies can refresh at once; none may see another's kernel
        # scratch.  Different sizes make the slices overlap unevenly,
        # and a tiny switch interval interleaves the threads between
        # array ops.  The sweep twins replay afterwards, so the threads
        # spend their time in the link kernel refresh.
        steps = 150
        configs = {
            seed: replace(SMALL_MANET, node_count=count)
            for seed, count in ((31, 40), (32, 70), (33, 55), (34, 90))
        }
        barrier = threading.Barrier(len(configs), timeout=60)

        def refreshes(seed):
            topology = generate_manet_network(seed, configs[seed])
            barrier.wait()
            packed = []
            for __ in range(steps):
                topology.advance()
                topology.recompute()
                packed.append(topology.packed_edges())
            return packed

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(configs)) as pool:
                runs = {seed: pool.submit(refreshes, seed) for seed in configs}
                results = {seed: run.result(timeout=120) for seed, run in runs.items()}
        finally:
            sys.setswitchinterval(interval)
        for seed, packed in results.items():
            twin = generate_manet_network(seed, configs[seed])
            n = twin.node_count
            for edges in packed:
                twin.advance()
                twin.force_full_rebuild()
                assert {divmod(e, n) for e in edges.tolist()} == twin.edge_set()

    def test_desynced_packed_array_is_flagged(self):
        topology = manet(18)
        topology.recompute()
        assert topology.consistency_problems() == []
        u, v = divmod(int(topology._edges[0]), topology.node_count)
        topology._edges = topology._edges[1:]
        assert topology.consistency_problems() == [
            f"packed edge array missing edge {u}->{v}"
        ]

    def test_static_network_refresh_does_no_edge_work(self):
        topology = manet(17)
        topology.recompute()
        edges = topology.packed_edges()
        epoch = topology.epoch
        topology.invalidate()
        topology.recompute()
        assert topology.epoch == epoch + 1
        assert topology.packed_edges() is edges


def packed_set(topology):
    return set(topology.packed_edges().tolist())


def flips(topology):
    return topology.stats.edges_added, topology.stats.edges_removed


@pytest.mark.usefixtures("evaluation")
class TestEdgeDeltaStream:
    """Each refresh's edge delta, as the flip counters report it."""

    def test_deltas_replay_to_current_edge_set(self):
        topology = manet(22)
        edges = packed_set(topology)
        moved = 0
        for __ in range(20):
            added, removed = flips(topology)
            topology.advance()
            current = packed_set(topology)
            assert flips(topology) == (
                added + len(current - edges),
                removed + len(edges - current),
            )
            moved += len(current ^ edges)
            edges = current
        assert moved  # mobility moved something
        assert [
            (u, v) for u, row in enumerate(topology.adjacency_view()) for v in row
        ] == [divmod(edge, topology.node_count) for edge in sorted(edges)]


class TestPinnedInstall:
    """Pinned graphs go through the geometric refresh's apply step."""

    def test_unchanged_reinstall_gives_empty_delta(self):
        topology = fixed_topology(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        rows = topology.adjacency_view()
        epoch = topology.epoch
        before = flips(topology)
        topology.invalidate()
        assert topology.packed_edges().tolist() == [1, 6, 11, 12]
        assert topology.epoch == epoch + 1
        assert flips(topology) == before
        assert topology.adjacency_view() is rows  # nothing changed

    def test_changed_reinstall_gives_exact_packed_diff(self):
        n = 4
        topology = fixed_topology(n, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 0)])
        edges = packed_set(topology)
        added, removed = flips(topology)
        topology.set_node_down(1)
        topology.block_edge(3, 0)
        current = packed_set(topology)
        assert current - edges == set()
        assert edges - current == {0 * n + 1, 1 * n + 0, 1 * n + 2, 3 * n + 0}
        assert flips(topology) == (added, removed + 4)
        topology.set_node_up(1)
        edges, current = current, packed_set(topology)
        assert current - edges == {0 * n + 1, 1 * n + 0, 1 * n + 2}
        assert edges - current == set()
        assert flips(topology) == (added + 3, removed + 4)
        assert topology.packed_edges().tolist() == [1, 4, 6, 11]
        assert list(topology.adjacency_view()) == [[1], [0, 2], [3], []]


def test_adjacency_view_roundtrip():
    n = 11
    pairs = [(0, 1), (0, 7), (3, 7), (10, 0)]
    packed = np.array([u * n + v for u, v in pairs], dtype=np.int64)
    rows = AdjacencyView(packed, n)
    assert len(rows) == n
    assert [(u, v) for u, row in enumerate(rows) for v in row] == pairs
    assert list(AdjacencyView(np.empty(0, dtype=np.int64), n)) == [[]] * n


class TestAdjacencyViewOnDemand:
    """Rows are built only for the nodes a consumer indexes."""

    def test_indexing_builds_only_that_row(self):
        topology = manet(24)
        view = topology.adjacency_view()
        assert view.served() == []
        row = view[5]
        assert row == [v for u, v in topology.edges() if u == 5]
        assert view.served() == [(5, row)]
        assert view[5] is row  # kept for the epoch
        assert topology.out_neighbors(5) is row

    def test_ids_outside_the_network_raise(self):
        topology = manet(24)
        view = topology.adjacency_view()
        for node in (-1, topology.node_count):
            with pytest.raises(IndexError):
                view[node]
        assert view.served() == []
        assert len(view) == topology.node_count

    def test_a_changed_epoch_serves_a_new_view(self):
        topology = manet(24)
        view = topology.adjacency_view()
        view[0]
        topology.force_full_rebuild()
        fresh = topology.adjacency_view()
        assert fresh is not view
        assert fresh.served() == []


class TestValidationConsistency:
    def test_has_edge_unknown_source_raises(self):
        topology = fixed_topology(3, [(0, 1)])
        with pytest.raises(TopologyError):
            topology.has_edge(99, 0)

    def test_has_edge_unknown_destination_raises(self):
        topology = fixed_topology(3, [(0, 1)])
        with pytest.raises(TopologyError):
            topology.has_edge(0, 99)

    def test_fault_ops_unknown_node_raise(self):
        topology = fixed_topology(3, [(0, 1)])
        with pytest.raises(TopologyError):
            topology.set_node_down(99)
        with pytest.raises(TopologyError):
            topology.block_edge(0, 99)


class TestGridRebucketing:
    def test_node_crossing_cells_tracks_edges(self, monkeypatch):
        # One fast mover sweeps past a line of anchored nodes; the column
        # grid must place it anew each refresh and edges must
        # appear/disappear on cue.
        monkeypatch.setattr(topology_module, "_DENSE_MAX_PAIRS", EVALUATIONS["grid"])
        arena = Arena(200, 50)
        nodes = [Node(i, Point(20 + 60 * i, 25), FixedRange(25.0)) for i in range(3)]
        mover = Node(3, Point(0, 25), HeterogeneousRange(25.0))
        topology = Topology(nodes + [mover], arena)
        topology.recompute()
        seen = set()
        for step in range(20):
            mover.position = Point(10.0 * step, 25)
            topology.invalidate()
            topology.recompute()
            assert topology.consistency_problems() == []
            seen.update(topology.out_neighbors(3))
        assert seen == {0, 1, 2}


class TestRefreshMemory:
    def test_one_refresh_of_a_5k_manet_stays_sparse(self):
        # One 5000 x 5000 float64 array alone is 200 MB: a dense n^2
        # refresh path creeping back would blow far past this bound.
        config = GeneratorConfig(
            node_count=5_000,
            target_edges=None,
            range_heterogeneity=0.25,
            require_strong_connectivity=False,
            gateway_count=32,
            mobile_fraction=0.5,
        )
        topology = NetworkGenerator(config, 9).generate_manet()
        topology.advance()
        tracemalloc.start()
        try:
            topology.recompute()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert topology.stats.edges_added > 0
        assert peak < 32 * 1024 * 1024, peak
