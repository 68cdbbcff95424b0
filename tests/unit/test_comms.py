"""Unit tests for meeting (direct-communication) protocols."""

import random

from repro.core.comms import (
    exchange_mapping_knowledge,
    exchange_routing_knowledge,
    group_by_location,
)
from repro.core.knowledge import EdgeIndex
from repro.core.mapping_agents import ConscientiousAgent
from repro.core.routing_agents import GatewayTrack, OldestNodeAgent, RandomRoutingAgent

NODES = 20


def mapping_agent(agent_id, location, index, seed=1):
    """A conscientious agent whose knowledge is on ``index``, as a world's are."""
    return ConscientiousAgent(agent_id, location, random.Random(seed), NODES, index=index)


def routing_agent(agent_id, location, visiting=True, seed=1):
    return OldestNodeAgent(
        agent_id, location, random.Random(seed), history_size=10, visiting=visiting
    )


class TestGroupByLocation:
    def test_groups(self):
        index = EdgeIndex(NODES)
        agents = [mapping_agent(i, node, index) for i, node in enumerate((5, 5, 7))]
        groups = group_by_location(agents)
        assert {n: len(g) for n, g in groups.items()} == {5: 2, 7: 1}


class TestMappingExchange:
    def test_colocated_agents_share_edges(self):
        index = EdgeIndex(NODES)
        a = mapping_agent(0, 5, index)
        b = mapping_agent(1, 5, index)
        a.knowledge.observe_node(5, [6], time=1)
        b.knowledge.observe_node(5, [], time=1)
        meetings = exchange_mapping_knowledge([a, b])
        assert meetings == 1
        assert b.knowledge.knows_edge((5, 6))

    def test_separated_agents_do_not_share(self):
        index = EdgeIndex(NODES)
        a = mapping_agent(0, 5, index)
        b = mapping_agent(1, 6, index)
        a.knowledge.observe_node(5, [6], time=1)
        meetings = exchange_mapping_knowledge([a, b])
        assert meetings == 0
        assert not b.knowledge.knows_edge((5, 6))

    def test_exchange_is_symmetric(self):
        index = EdgeIndex(NODES)
        a = mapping_agent(0, 5, index)
        b = mapping_agent(1, 5, index)
        a.knowledge.observe_node(1, [2], time=1)
        b.knowledge.observe_node(3, [4], time=2)
        a.location = b.location = 5
        exchange_mapping_knowledge([a, b])
        assert a.knowledge.knows_edge((3, 4))
        assert b.knowledge.knows_edge((1, 2))

    def test_order_independence(self):
        # Running the same exchange with reversed agent order yields the
        # same post-state: the group union is computed from snapshots.
        def build():
            index = EdgeIndex(NODES)
            a = mapping_agent(0, 5, index)
            b = mapping_agent(1, 5, index)
            a.knowledge.observe_node(1, [2], time=1)
            b.knowledge.observe_node(3, [4], time=2)
            return a, b

        a1, b1 = build()
        exchange_mapping_knowledge([a1, b1])
        a2, b2 = build()
        exchange_mapping_knowledge([b2, a2])
        assert a1.knowledge.all_edges == a2.knowledge.all_edges
        assert b1.knowledge.all_edges == b2.knowledge.all_edges

    def test_three_way_meeting(self):
        shared = EdgeIndex(NODES)
        agents = [mapping_agent(i, 5, shared, seed=i) for i in range(3)]
        for index, agent in enumerate(agents):
            agent.knowledge.observe_node(index, [index + 10], time=1)
        exchange_mapping_knowledge(agents)
        for agent in agents:
            assert agent.knowledge.known_edge_count == 3


class TestRoutingExchange:
    def test_best_track_wins_for_everyone(self):
        a = routing_agent(0, 5)
        b = routing_agent(1, 5, seed=2)
        a.tracks = {9: GatewayTrack(hops=6, visited_at=1)}
        b.tracks = {9: GatewayTrack(hops=2, visited_at=2)}
        meetings = exchange_routing_knowledge([a, b])
        assert meetings == 1
        assert a.tracks[9].hops == 2
        assert b.tracks[9].hops == 2

    def test_own_better_track_is_kept(self):
        a = routing_agent(0, 5)
        b = routing_agent(1, 5, seed=2)
        a.tracks = {9: GatewayTrack(hops=1, visited_at=5)}
        b.tracks = {9: GatewayTrack(hops=4, visited_at=9)}
        exchange_routing_knowledge([a, b])
        assert a.tracks[9].hops == 1
        assert b.tracks[9].hops == 1

    def test_tracks_union_over_gateways(self):
        a = routing_agent(0, 5)
        b = routing_agent(1, 5, seed=2)
        a.tracks = {8: GatewayTrack(hops=1, visited_at=1)}
        b.tracks = {9: GatewayTrack(hops=3, visited_at=2)}
        exchange_routing_knowledge([a, b])
        assert set(a.tracks) == set(b.tracks) == {8, 9}

    def test_non_visiting_agents_excluded(self):
        a = routing_agent(0, 5, visiting=False)
        b = routing_agent(1, 5, visiting=True, seed=2)
        b.tracks = {9: GatewayTrack(hops=1, visited_at=1)}
        meetings = exchange_routing_knowledge([a, b])
        assert meetings == 0
        assert a.tracks == {}

    def test_histories_become_identical(self):
        a = routing_agent(0, 5)
        b = routing_agent(1, 5, seed=2)
        a.history.record(1, 10)
        b.history.record(2, 20)
        exchange_routing_knowledge([a, b])
        assert a.history.snapshot() == b.history.snapshot()

    def test_random_agents_also_exchange(self):
        a = RandomRoutingAgent(0, 5, random.Random(1), history_size=5, visiting=True)
        b = RandomRoutingAgent(1, 5, random.Random(2), history_size=5, visiting=True)
        b.tracks = {9: GatewayTrack(hops=1, visited_at=1)}
        exchange_routing_knowledge([a, b])
        assert 9 in a.tracks


class TestNoColocatedPair:
    def test_apart_teams_skip_the_grouping_pass(self, monkeypatch):
        import repro.core.comms as comms

        def refuse(agents):
            raise AssertionError("grouped a team with no co-located pair")

        monkeypatch.setattr(comms, "group_by_location", refuse)
        index = EdgeIndex(NODES)
        mapping = [mapping_agent(i, node, index) for i, node in enumerate((1, 2, 3))]
        routing = [routing_agent(i, node) for i, node in enumerate((1, 2, 3))]
        mapping[0].knowledge.observe_node(1, [2], time=1)
        assert exchange_mapping_knowledge(mapping) == 0
        assert exchange_routing_knowledge(routing) == 0
        assert exchange_mapping_knowledge([]) == exchange_routing_knowledge([]) == 0
        assert all(agent.overhead.meetings == 0 for agent in mapping + routing)
        assert not mapping[1].knowledge.knows_edge((1, 2))
