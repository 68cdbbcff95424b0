"""Property tests: knowledge stores are monotone and merge-safe."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.comms import exchange_mapping_knowledge
from repro.core.knowledge import EdgeBits, EdgeIndex, TopologyKnowledge, pool_knowledge
from repro.core.mapping_agents import ConscientiousAgent
from repro.types import NEVER

NODES = 21
nodes = st.integers(min_value=0, max_value=20)
times = st.integers(min_value=0, max_value=1000)

observations = st.lists(
    st.tuples(nodes, st.lists(nodes, max_size=5), times), max_size=30
)


def build(obs, index=None):
    knowledge = TopologyKnowledge(NODES, index)
    for node, neighbors, time in obs:
        knowledge.observe_node(node, neighbors, time)
    return knowledge


@given(observations)
@settings(max_examples=100)
def test_edge_count_monotone_under_observation(obs):
    knowledge = TopologyKnowledge(NODES)
    previous = 0
    for node, neighbors, time in obs:
        knowledge.observe_node(node, neighbors, time)
        assert knowledge.known_edge_count >= previous
        previous = knowledge.known_edge_count


@given(observations, observations)
@settings(max_examples=100)
def test_absorb_is_superset_union(obs_a, obs_b):
    index = EdgeIndex(NODES)
    a = build(obs_a, index)
    b = build(obs_b, index)
    a.absorb(b.shareable_edges(), b.shareable_visits())
    assert a.all_edges >= b.all_edges
    assert a.all_edges >= a.first_hand_edges


@given(observations, observations)
@settings(max_examples=100)
def test_absorb_idempotent(obs_a, obs_b):
    index = EdgeIndex(NODES)
    a = build(obs_a, index)
    b = build(obs_b, index)
    a.absorb(b.shareable_edges(), b.shareable_visits())
    edges_once = a.all_edges
    visits_once = {n: a.last_combined_visit(n) for n in range(21)}
    a.absorb(b.shareable_edges(), b.shareable_visits())
    assert a.all_edges == edges_once
    assert {n: a.last_combined_visit(n) for n in range(21)} == visits_once


@given(observations)
@settings(max_examples=100)
def test_combined_visit_never_older_than_first_hand(obs):
    knowledge = build(obs)
    for node in range(21):
        assert knowledge.last_combined_visit(node) >= knowledge.last_first_hand_visit(node)


@given(observations)
@settings(max_examples=100)
def test_completeness_bounds(obs):
    knowledge = build(obs)
    for total in (0, 1, 10, 1000):
        fraction = knowledge.completeness(total)
        assert 0.0 <= fraction <= 1.0


@given(observations, observations, observations)
@settings(max_examples=60)
def test_absorb_commutative_on_edges(obs_a, obs_b, obs_c):
    index = EdgeIndex(NODES)
    base_a = build(obs_a, index)
    base_b = build(obs_a, index)
    b = build(obs_b, index)
    c = build(obs_c, index)
    base_a.absorb(b.shareable_edges(), b.shareable_visits())
    base_a.absorb(c.shareable_edges(), c.shareable_visits())
    base_b.absorb(c.shareable_edges(), c.shareable_visits())
    base_b.absorb(b.shareable_edges(), b.shareable_visits())
    assert base_a.all_edges == base_b.all_edges
    for node in range(21):
        assert base_a.last_combined_visit(node) == base_b.last_combined_visit(node)


@given(observations)
@settings(max_examples=50)
def test_never_for_unvisited(obs):
    knowledge = build(obs)
    visited = {node for node, __, __ in obs}
    for node in range(21):
        if node not in visited:
            assert knowledge.last_first_hand_visit(node) == NEVER


class ReferenceKnowledge:
    """The plain set/dict store the bitset store must agree with."""

    def __init__(self):
        self.edges_first = set()
        self.edges_all = set()
        self.visits_first = {}
        self.visits_second = {}

    def observe_node(self, node, neighbors, time):
        self.visits_first[node] = time
        for neighbor in neighbors:
            self.edges_first.add((node, neighbor))
            self.edges_all.add((node, neighbor))

    def absorb(self, edges, visits):
        self.edges_all.update(edges)
        for node, time in visits.items():
            if time > self.visits_second.get(node, NEVER):
                self.visits_second[node] = time

    def shareable_visits(self):
        combined = dict(self.visits_second)
        for node, time in self.visits_first.items():
            if time > combined.get(node, NEVER):
                combined[node] = time
        return combined


def assert_agrees(real, reference, node_count):
    assert real.known_edge_count == len(reference.edges_all)
    assert len(real.shareable_edges()) == real.known_edge_count
    assert set(real.shareable_edges()) == reference.edges_all
    assert real.all_edges == reference.edges_all
    assert real.first_hand_edges == reference.edges_first
    for source in range(node_count):
        for destination in range(node_count):
            edge = (source, destination)
            assert real.knows_edge(edge) == (edge in reference.edges_all)
    for node in range(node_count):
        first = reference.visits_first.get(node, NEVER)
        assert real.last_first_hand_visit(node) == first
        assert real.last_combined_visit(node) == max(
            first, reference.visits_second.get(node, NEVER)
        )
    shared = real.shareable_visits().tolist()
    assert {n: t for n, t in enumerate(shared) if t > NEVER} == reference.shareable_visits()
    for total in (0, 1, len(reference.edges_all), node_count * node_count):
        expected = 1.0 if total <= 0 else min(1.0, len(reference.edges_all) / total)
        assert real.completeness(total) == expected


STORES = 3


def packed(edges, node_count):
    """``edges`` as a sorted packed ``u * n + v`` array, as a topology serves them."""
    return np.array(sorted(u * node_count + v for u, v in edges), dtype=np.int64)


@st.composite
def operation_runs(draw):
    """A node count, the index's initial edges and a random mix of steps.

    Observed and live edges are drawn over all node pairs, so some fall
    outside the initial list and take the index's append path.
    """
    node_count = draw(st.integers(min_value=1, max_value=9))
    node = st.one_of(
        st.sampled_from([0, node_count - 1]),
        st.integers(min_value=0, max_value=node_count - 1),
    )
    edge = st.tuples(node, node)
    initial = draw(st.sets(edge, max_size=12))
    who = st.integers(min_value=0, max_value=STORES - 1)
    # Times go backwards and below NEVER: first-hand visits overwrite,
    # second-hand reports keep the freshest, whatever the order.
    time = st.integers(min_value=-3, max_value=40)
    # A row as the world serves it: ascending and distinct, either the
    # node's initial row (one contiguous mask) or any other.
    row = st.one_of(st.just(None), st.sets(node, max_size=4).map(sorted))
    operation = st.one_of(
        st.tuples(st.just("observe"), who, node, st.lists(node, max_size=4), time),
        st.tuples(st.just("row"), who, node, row, time),
        st.tuples(st.just("absorb"), who, who),
        st.tuples(st.just("meet"), st.sets(who, min_size=2)),
        # The live edges after a change: what ``who`` knows, minus the
        # edges that disappeared, plus edges that appeared.
        st.tuples(st.just("live"), who, st.sets(edge, max_size=6), st.sets(edge, max_size=4)),
    )
    return node_count, initial, draw(st.lists(operation, max_size=25))


@given(operation_runs())
@settings(max_examples=150, deadline=None)
def test_bitset_store_matches_reference_model(run):
    node_count, initial, operations = run
    index = EdgeIndex(node_count, packed(initial, node_count))
    agents = [
        ConscientiousAgent(i, 0, random.Random(i), node_count, index=index)
        for i in range(STORES)
    ]
    references = [ReferenceKnowledge() for __ in range(STORES)]
    for operation in operations:
        kind = operation[0]
        if kind == "observe":
            __, who, node, neighbors, time = operation
            agents[who].knowledge.observe_node(node, neighbors, time)
            references[who].observe_node(node, neighbors, time)
        elif kind == "row":
            __, who, node, neighbors, time = operation
            if neighbors is None:
                neighbors = sorted(v for u, v in initial if u == node)
            agents[who].knowledge.observe_row(node, index.row_bits(node, neighbors), time)
            references[who].observe_node(node, neighbors, time)
        elif kind == "absorb":
            __, who, source = operation
            peer = agents[source].knowledge
            agents[who].knowledge.absorb(peer.shareable_edges(), peer.shareable_visits())
            reference = references[source]
            references[who].absorb(set(reference.edges_all), reference.shareable_visits())
        elif kind == "meet":
            members = sorted(operation[1])
            edges, visits = set(), {}
            for who in members:
                edges |= references[who].edges_all
                for node, time in references[who].shareable_visits().items():
                    visits[node] = max(time, visits.get(node, NEVER))
            received = [agents[who].overhead.items_received for who in members]
            assert exchange_mapping_knowledge([agents[who] for who in members]) == 1
            for who, before in zip(members, received):
                references[who].absorb(edges, visits)
                payload = agents[who].overhead.items_received - before
                assert payload == len(edges) + len(visits)
        else:
            __, who, gone, appeared = operation
            live = (references[who].edges_all - gone) | appeared
            mask = EdgeBits.from_packed(packed(live, node_count), index)
            assert set(mask) == live
            assert len(mask) == len(live)
            assert EdgeBits.from_edges(live, index).bits == mask.bits
            for agent, reference in zip(agents, references):
                assert agent.knowledge.count_known(mask) == len(reference.edges_all & live)
        for agent, reference in zip(agents, references):
            assert_agrees(agent.knowledge, reference, node_count)
    # The initial edges keep their packed-array order; every edge met
    # since took a later bit of its own.
    positions = [index.find(edge) for edge in sorted(initial)]
    assert positions == list(range(len(initial)))
    pairs = [(u, v) for u in range(node_count) for v in range(node_count)]
    appended = [index.find(edge) for edge in pairs if edge not in initial]
    appended = [position for position in appended if position is not None]
    assert sorted(appended) == list(range(len(initial), len(index)))


@given(observations, observations, st.sets(st.tuples(nodes, nodes), max_size=20))
@settings(max_examples=60)
def test_stores_on_different_indexes_refuse_to_merge(obs_a, obs_b, initial):
    # Equal initial edge lists still make two indexes: their appended
    # edges may take different bits.
    a = build(obs_a, EdgeIndex(NODES, packed(initial, NODES)))
    b = build(obs_b, EdgeIndex(NODES, packed(initial, NODES)))
    before = (a.all_edges, a.known_edge_count, a.shareable_visits().tolist())
    calls = [
        lambda: a.absorb(b.shareable_edges(), b.shareable_visits()),
        lambda: a.count_known(b.shareable_edges()),
        lambda: pool_knowledge([a, b]),
        lambda: pool_knowledge([b, a]),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()
    assert (a.all_edges, a.known_edge_count, a.shareable_visits().tolist()) == before
    agents = [
        ConscientiousAgent(i, 0, random.Random(i), NODES, index=EdgeIndex(NODES))
        for i in range(2)
    ]
    with pytest.raises(ValueError):
        exchange_mapping_knowledge(agents)


@given(
    st.integers(min_value=1, max_value=9).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.one_of(st.integers(max_value=-1), st.integers(min_value=n)),
        )
    )
)
@settings(max_examples=60)
def test_out_of_range_ids_raise(case):
    node_count, bad = case
    knowledge = TopologyKnowledge(node_count)
    calls = [
        lambda: knowledge.observe_node(bad, [], 0),
        lambda: knowledge.observe_node(0, [bad], 0),
        lambda: knowledge.knows_edge((bad, 0)),
        lambda: knowledge.knows_edge((0, bad)),
        lambda: knowledge.last_first_hand_visit(bad),
        lambda: knowledge.last_combined_visit(bad),
        lambda: EdgeBits.from_edges([(0, bad)], knowledge.index),
        lambda: EdgeBits.from_edges([(bad, 0)], knowledge.index),
        lambda: (bad, 0) in knowledge.shareable_edges(),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()
    # A rejected observation leaves the store untouched.
    assert knowledge.known_edge_count == 0
    assert knowledge.last_first_hand_visit(0) == NEVER


@given(
    observations,
    st.lists(times, min_size=NODES, max_size=NODES),
    st.lists(nodes, min_size=1, max_size=8, unique=True),
    st.booleans(),
)
@settings(max_examples=100)
def test_least_recent_matches_the_per_node_queries(obs, reported, candidates, combined):
    knowledge = build(obs)
    visits = np.array(reported, dtype=np.int64)
    knowledge.absorb(EdgeBits(0, knowledge.index), visits)
    recency = (
        knowledge.last_combined_visit if combined else knowledge.last_first_hand_visit
    )
    times_of = [recency(candidate) for candidate in candidates]
    expected = [c for c, t in zip(candidates, times_of) if t == min(times_of)]
    assert knowledge.least_recent(candidates, combined) == expected


@given(observations)
@settings(max_examples=50)
def test_observe_row_matches_observe_node(obs):
    by_row = TopologyKnowledge(NODES)
    position = by_row.index.position
    for node, neighbors, time in obs:
        by_row.observe_row(node, sum(1 << position((node, v)) for v in set(neighbors)), time)
    by_ids = build(obs)
    assert by_row.all_edges == by_ids.all_edges
    assert by_row.first_hand_edges == by_ids.first_hand_edges
    assert by_row.known_edge_count == by_ids.known_edge_count
    assert [by_row.last_first_hand_visit(n) for n in range(NODES)] == [
        by_ids.last_first_hand_visit(n) for n in range(NODES)
    ]
