"""Unit tests for agent topology knowledge."""

import random

import numpy as np

import pytest

from repro.core.knowledge import (
    EdgeBits,
    EdgeIndex,
    TopologyKnowledge,
    _count_ones,
    popcount,
    pool_knowledge,
)
from repro.types import NEVER

NODES = 50


def payload(knowledge, edges, visits):
    """A meeting payload for ``knowledge`` holding exactly ``edges`` and ``visits``."""
    vector = np.full(NODES, NEVER, dtype=np.int64)
    for node, time in visits.items():
        vector[node] = time
    return EdgeBits.from_edges(edges, knowledge.index), vector


class TestObserve:
    def test_first_hand_edges_recorded(self):
        knowledge = TopologyKnowledge(NODES)
        knowledge.observe_node(0, [1, 2], time=5)
        assert knowledge.first_hand_edges == {(0, 1), (0, 2)}
        assert knowledge.all_edges == {(0, 1), (0, 2)}
        assert knowledge.known_edge_count == 2

    def test_visit_time_recorded(self):
        knowledge = TopologyKnowledge(NODES)
        knowledge.observe_node(3, [], time=7)
        assert knowledge.last_first_hand_visit(3) == 7
        assert knowledge.last_combined_visit(3) == 7

    def test_revisit_updates_time(self):
        knowledge = TopologyKnowledge(NODES)
        knowledge.observe_node(3, [], time=7)
        knowledge.observe_node(3, [], time=9)
        assert knowledge.last_first_hand_visit(3) == 9

    def test_unvisited_is_never(self):
        knowledge = TopologyKnowledge(NODES)
        assert knowledge.last_first_hand_visit(42) == NEVER
        assert knowledge.last_combined_visit(42) == NEVER

    def test_observe_idempotent_edges(self):
        knowledge = TopologyKnowledge(NODES)
        knowledge.observe_node(0, [1], time=1)
        knowledge.observe_node(0, [1], time=2)
        assert knowledge.known_edge_count == 1


class TestAbsorb:
    def test_second_hand_edges_count(self):
        knowledge = TopologyKnowledge(NODES)
        knowledge.absorb(*payload(knowledge, {(4, 5)}, {4: 3}))
        assert knowledge.known_edge_count == 1
        assert knowledge.first_hand_edges == frozenset()
        assert knowledge.knows_edge((4, 5))

    def test_second_hand_visits_dont_touch_first_hand(self):
        knowledge = TopologyKnowledge(NODES)
        knowledge.absorb(*payload(knowledge, set(), {4: 10}))
        assert knowledge.last_first_hand_visit(4) == NEVER
        assert knowledge.last_combined_visit(4) == 10

    def test_combined_takes_max(self):
        knowledge = TopologyKnowledge(NODES)
        knowledge.observe_node(4, [], time=3)
        knowledge.absorb(*payload(knowledge, set(), {4: 10}))
        assert knowledge.last_combined_visit(4) == 10
        knowledge.observe_node(4, [], time=20)
        assert knowledge.last_combined_visit(4) == 20

    def test_absorb_keeps_freshest_report(self):
        knowledge = TopologyKnowledge(NODES)
        knowledge.absorb(*payload(knowledge, set(), {4: 10}))
        knowledge.absorb(*payload(knowledge, set(), {4: 6}))
        assert knowledge.last_combined_visit(4) == 10

    def test_absorb_idempotent(self):
        knowledge = TopologyKnowledge(NODES)
        knowledge.absorb(*payload(knowledge, {(1, 2)}, {1: 5}))
        before = (knowledge.known_edge_count, knowledge.last_combined_visit(1))
        knowledge.absorb(*payload(knowledge, {(1, 2)}, {1: 5}))
        assert (knowledge.known_edge_count, knowledge.last_combined_visit(1)) == before


class TestCompleteness:
    def test_empty_network_complete(self):
        assert TopologyKnowledge(NODES).completeness(0) == 1.0

    def test_fraction(self):
        knowledge = TopologyKnowledge(NODES)
        knowledge.observe_node(0, [1, 2], time=1)
        assert knowledge.completeness(4) == 0.5

    def test_capped_at_one(self):
        knowledge = TopologyKnowledge(NODES)
        knowledge.observe_node(0, [1, 2], time=1)
        assert knowledge.completeness(1) == 1.0


class TestSharing:
    def test_shareable_edges_includes_both_hands(self):
        knowledge = TopologyKnowledge(NODES)
        knowledge.observe_node(0, [1], time=1)
        knowledge.absorb(*payload(knowledge, {(2, 3)}, {}))
        assert knowledge.shareable_edges() == {(0, 1), (2, 3)}

    def test_shareable_visits_combined(self):
        knowledge = TopologyKnowledge(NODES)
        knowledge.observe_node(0, [], time=5)
        knowledge.absorb(*payload(knowledge, set(), {0: 2, 1: 9}))
        shared = knowledge.shareable_visits()
        assert shared[0] == 5  # own, fresher
        assert shared[1] == 9  # peer-provided

    def test_round_trip_through_peer(self):
        source = TopologyKnowledge(NODES)
        source.observe_node(0, [1, 2], time=4)
        sink = TopologyKnowledge(NODES, source.index)
        sink.absorb(source.shareable_edges(), source.shareable_visits())
        assert sink.knows_edge((0, 1))
        assert sink.last_combined_visit(0) == 4


class TestEdgeIndex:
    # Rows 0 -> {1, 3} and 2 -> {0}, packed u * n + v over 4 nodes.
    PACKED = np.array([1, 3, 8], dtype=np.int64)

    def test_initial_edges_take_their_array_positions(self):
        index = EdgeIndex(4, self.PACKED)
        assert [index.find(edge) for edge in [(0, 1), (0, 3), (2, 0)]] == [0, 1, 2]
        assert index.find((1, 2)) is None
        assert len(index) == 3

    def test_initial_row_is_one_contiguous_mask(self):
        index = EdgeIndex(4, self.PACKED)
        assert index.row_bits(0, [1, 3]) == 0b011
        assert index.row_bits(2, [0]) == 0b100
        assert index.row_bits(1, []) == 0
        assert len(index) == 3

    def test_changed_row_appends_only_new_edges(self):
        index = EdgeIndex(4, self.PACKED)
        assert index.row_bits(0, [1, 2]) == 1 << 0 | 1 << 3
        assert index.find((0, 2)) == 3
        assert index.position((3, 3)) == 4
        assert index.position((0, 2)) == 3  # a position never moves
        assert EdgeBits.from_packed(np.array([2, 3, 15]), index).bits == 0b11010

    def test_decode_is_row_major(self):
        index = EdgeIndex(4, self.PACKED)
        index.position((1, 0))
        bits = EdgeBits.from_edges([(2, 0), (1, 0), (0, 3)], index)
        assert list(bits) == [(0, 3), (1, 0), (2, 0)]
        assert len(bits) == 3
        assert (1, 0) in bits and (0, 1) not in bits and (3, 3) not in bits
        assert len(index) == 4  # membership queries append nothing

    def test_bad_packed_arrays_raise(self):
        for packed in ([3, 1], [1, 1], [-1], [16]):
            with pytest.raises(ValueError):
                EdgeIndex(4, np.array(packed, dtype=np.int64))
        with pytest.raises(ValueError):
            EdgeIndex(-1)

    def test_store_refuses_an_index_over_other_nodes(self):
        with pytest.raises(ValueError):
            TopologyKnowledge(5, EdgeIndex(4))

    def test_stores_on_different_indexes_refuse_to_merge(self):
        a = TopologyKnowledge(NODES, EdgeIndex(NODES))
        b = TopologyKnowledge(NODES, EdgeIndex(NODES))
        b.observe_node(0, [1], time=1)
        with pytest.raises(ValueError):
            a.absorb(b.shareable_edges(), b.shareable_visits())
        with pytest.raises(ValueError):
            a.count_known(b.shareable_edges())
        with pytest.raises(ValueError):
            pool_knowledge([a, b])
        assert a.known_edge_count == 0
        assert a.last_combined_visit(0) == NEVER


class TestPopcount:
    def test_shim_agrees_with_bin_count(self):
        rng = random.Random(7)
        values = [0] + [rng.getrandbits(bits) for bits in (1, 30, 64, 1000, 90_000)]
        for value in values:
            assert popcount(value) == _count_ones(value) == bin(value).count("1")
            if hasattr(int, "bit_count"):
                assert value.bit_count() == _count_ones(value)
