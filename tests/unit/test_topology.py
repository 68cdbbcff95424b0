"""Unit tests for the topology engine and fixed topologies."""

import pytest

from repro.errors import TopologyError
from repro.net.battery import Battery, LinearDrain
from repro.net.geometry import Arena, Point
from repro.net.manual import fixed_topology
from repro.net.node import Node
from repro.net.radio import BatteryCoupledRange, FixedRange, HeterogeneousRange
from repro.net.topology import Topology


def make_line_topology():
    """Three nodes in a row, ranges that see only adjacent nodes."""
    arena = Arena(100, 100)
    nodes = [
        Node(0, Point(10, 50), FixedRange(15.0)),
        Node(1, Point(25, 50), FixedRange(15.0)),
        Node(2, Point(40, 50), FixedRange(15.0)),
    ]
    topology = Topology(nodes, arena)
    topology.recompute()
    return topology


class TestTopologyBasics:
    def test_requires_nodes(self):
        with pytest.raises(TopologyError):
            Topology([], Arena(10, 10))

    def test_requires_contiguous_ids(self):
        nodes = [Node(1, Point(0, 0), FixedRange(1.0))]
        with pytest.raises(TopologyError):
            Topology(nodes, Arena(10, 10))

    def test_line_adjacency(self):
        topology = make_line_topology()
        assert topology.out_neighbors(0) == [1]
        assert topology.out_neighbors(1) == [0, 2]
        assert topology.out_neighbors(2) == [1]

    def test_edge_count_and_edges(self):
        topology = make_line_topology()
        assert topology.edge_count == 4
        assert list(topology.edges()) == [(0, 1), (1, 0), (1, 2), (2, 1)]

    def test_has_edge(self):
        topology = make_line_topology()
        assert topology.has_edge(0, 1)
        assert not topology.has_edge(0, 2)

    def test_in_neighbors(self):
        topology = make_line_topology()
        assert topology.in_neighbors(1) == [0, 2]

    def test_unknown_node_raises(self):
        topology = make_line_topology()
        with pytest.raises(TopologyError):
            topology.out_neighbors(99)
        with pytest.raises(TopologyError):
            topology.node(99)

    def test_negative_ids_are_unknown(self):
        # Python's negative indexing must not turn -1 into the last node.
        topology = make_line_topology()
        with pytest.raises(TopologyError):
            topology.node(-1)
        with pytest.raises(TopologyError):
            topology.set_node_down(-1)
        with pytest.raises(TopologyError):
            topology.set_node_up(-1)
        with pytest.raises(TopologyError):
            topology.block_edge(-1, 0)
        with pytest.raises(TopologyError):
            topology.block_edge(0, -1)
        assert topology.down_ids == frozenset()
        assert topology.blocked_edges == frozenset()
        assert topology.out_neighbors(2) == [1]

    def test_unblocking_an_unknown_id_raises(self):
        # An id typo must not read as "no such blackout".
        topology = make_line_topology()
        n = topology.node_count
        for source, destination in ((-1, 0), (0, -1), (n, 0), (0, n)):
            with pytest.raises(TopologyError):
                topology.unblock_edge(source, destination)
        assert topology.block_edge(0, 1)
        assert topology.unblock_edge(0, 1)
        assert not topology.unblock_edge(0, 1)

    def test_adjacency_copy_is_independent(self):
        topology = make_line_topology()
        copy = topology.adjacency_copy()
        copy[0].add(2)
        assert not topology.has_edge(0, 2)

    def test_strong_connectivity(self):
        assert make_line_topology().is_strongly_connected()


class TestDirectedLinks:
    def test_asymmetric_ranges_give_directed_edges(self):
        arena = Arena(100, 100)
        nodes = [
            Node(0, Point(10, 10), HeterogeneousRange(30.0)),
            Node(1, Point(35, 10), HeterogeneousRange(10.0)),
        ]
        topology = Topology(nodes, arena)
        topology.recompute()
        assert topology.has_edge(0, 1)
        assert not topology.has_edge(1, 0)
        assert not topology.is_strongly_connected()

    def test_degradation_removes_edges(self):
        arena = Arena(100, 100)
        radio = HeterogeneousRange(30.0)
        nodes = [
            Node(0, Point(10, 10), radio),
            Node(1, Point(35, 10), HeterogeneousRange(30.0)),
        ]
        topology = Topology(nodes, arena)
        assert topology.has_edge(0, 1)
        radio.degrade(0.5)  # range 15 < distance 25
        topology.invalidate()
        assert not topology.has_edge(0, 1)
        assert topology.has_edge(1, 0)


class TestDynamics:
    def test_advance_moves_and_invalidates(self):
        arena = Arena(100, 100)
        battery = Battery(LinearDrain(0.2))
        nodes = [
            Node(0, Point(10, 10), BatteryCoupledRange(40.0, battery), battery=battery),
            Node(1, Point(40, 10), FixedRange(40.0)),
        ]
        topology = Topology(nodes, arena)
        assert topology.has_edge(0, 1)
        for __ in range(4):  # battery 0.2 -> range 40*sqrt(0.2) ~ 17.9 < 30
            topology.advance()
        assert not topology.has_edge(0, 1)

    def test_dead_battery_no_out_edges(self):
        arena = Arena(100, 100)
        battery = Battery(LinearDrain(1.0))
        nodes = [
            Node(0, Point(10, 10), BatteryCoupledRange(40.0, battery), battery=battery),
            Node(1, Point(20, 10), FixedRange(40.0)),
        ]
        topology = Topology(nodes, arena)
        topology.advance()
        assert topology.out_neighbors(0) == []
        assert topology.has_edge(1, 0)


class TestFixedTopology:
    def test_exact_edges(self, directed_cycle4):
        assert list(directed_cycle4.edges()) == [(0, 1), (1, 2), (2, 3), (3, 0)]

    def test_survives_invalidate(self, directed_cycle4):
        directed_cycle4.invalidate()
        assert directed_cycle4.has_edge(0, 1)
        assert not directed_cycle4.has_edge(1, 0)

    def test_gateways(self, gateway_line4):
        assert gateway_line4.gateway_ids == [0]
        assert gateway_line4.node(0).is_gateway

    def test_rejects_bad_edges(self):
        with pytest.raises(TopologyError):
            fixed_topology(2, [(0, 5)])
        with pytest.raises(TopologyError):
            fixed_topology(2, [(0, 0)])
        with pytest.raises(TopologyError):
            fixed_topology(0, [])

    def test_advance_keeps_edges(self, ring6):
        before = ring6.edge_set()
        ring6.advance()
        assert ring6.edge_set() == before
