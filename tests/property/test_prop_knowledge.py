"""Property tests: knowledge stores are monotone and merge-safe."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.comms import exchange_mapping_knowledge
from repro.core.knowledge import EdgeBits, TopologyKnowledge
from repro.core.mapping_agents import ConscientiousAgent
from repro.types import NEVER

NODES = 21
nodes = st.integers(min_value=0, max_value=20)
times = st.integers(min_value=0, max_value=1000)

observations = st.lists(
    st.tuples(nodes, st.lists(nodes, max_size=5), times), max_size=30
)


def build(obs):
    knowledge = TopologyKnowledge(NODES)
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
    a = build(obs_a)
    b = build(obs_b)
    a.absorb(b.shareable_edges(), b.shareable_visits())
    assert a.all_edges >= b.all_edges
    assert a.all_edges >= a.first_hand_edges


@given(observations, observations)
@settings(max_examples=100)
def test_absorb_idempotent(obs_a, obs_b):
    a = build(obs_a)
    b = build(obs_b)
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
    base_a = build(obs_a)
    base_b = build(obs_a)
    b = build(obs_b)
    c = build(obs_c)
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


@st.composite
def operation_runs(draw):
    """A node count and a random mix of observe / absorb / meet steps."""
    node_count = draw(st.integers(min_value=1, max_value=9))
    node = st.one_of(
        st.sampled_from([0, node_count - 1]),
        st.integers(min_value=0, max_value=node_count - 1),
    )
    who = st.integers(min_value=0, max_value=STORES - 1)
    # Times go backwards and below NEVER: first-hand visits overwrite,
    # second-hand reports keep the freshest, whatever the order.
    time = st.integers(min_value=-3, max_value=40)
    operation = st.one_of(
        st.tuples(st.just("observe"), who, node, st.lists(node, max_size=4), time),
        st.tuples(st.just("absorb"), who, who),
        st.tuples(st.just("meet"), st.sets(who, min_size=2)),
    )
    return node_count, draw(st.lists(operation, max_size=25))


@given(operation_runs())
@settings(max_examples=150, deadline=None)
def test_bitset_store_matches_reference_model(run):
    node_count, operations = run
    agents = [ConscientiousAgent(i, 0, random.Random(i), node_count) for i in range(STORES)]
    references = [ReferenceKnowledge() for __ in range(STORES)]
    for operation in operations:
        kind = operation[0]
        if kind == "observe":
            __, who, node, neighbors, time = operation
            agents[who].knowledge.observe_node(node, neighbors, time)
            references[who].observe_node(node, neighbors, time)
        elif kind == "absorb":
            __, who, source = operation
            peer = agents[source].knowledge
            agents[who].knowledge.absorb(peer.shareable_edges(), peer.shareable_visits())
            reference = references[source]
            references[who].absorb(set(reference.edges_all), reference.shareable_visits())
        else:
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
        for agent, reference in zip(agents, references):
            assert_agrees(agent.knowledge, reference, node_count)


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
        lambda: EdgeBits.from_edges([(0, bad)], node_count),
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
    knowledge.absorb(EdgeBits(0, NODES), visits)
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
    for node, neighbors, time in obs:
        by_row.observe_row(node, sum(1 << v for v in set(neighbors)), time)
    by_ids = build(obs)
    assert by_row.all_edges == by_ids.all_edges
    assert by_row.first_hand_edges == by_ids.first_hand_edges
    assert by_row.known_edge_count == by_ids.known_edge_count
    assert [by_row.last_first_hand_visit(n) for n in range(NODES)] == [
        by_ids.last_first_hand_visit(n) for n in range(NODES)
    ]
