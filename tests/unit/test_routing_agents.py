"""Unit tests for routing agents: tracks, movement, meetings."""

import random

import pytest

from repro.core.routing_agents import (
    GatewayTrack,
    OldestNodeAgent,
    RandomRoutingAgent,
    ROUTING_AGENT_KINDS,
    make_routing_agent,
)
from repro.core.stigmergy import StigmergyField
from repro.errors import ConfigurationError


def agent_of(cls, start=0, seed=1, history=5, **kwargs):
    return cls(0, start, random.Random(seed), history_size=history, **kwargs)


class TestGatewayTrack:
    def test_stepped(self):
        track = GatewayTrack(hops=2, visited_at=10)
        assert track.stepped() == GatewayTrack(hops=3, visited_at=10)

    def test_better_than_fewer_hops(self):
        assert GatewayTrack(1, 5).better_than(GatewayTrack(3, 9))

    def test_better_than_fresher_on_tie(self):
        assert GatewayTrack(2, 9).better_than(GatewayTrack(2, 5))
        assert not GatewayTrack(2, 5).better_than(GatewayTrack(2, 9))


class TestFactory:
    def test_kinds(self):
        assert set(ROUTING_AGENT_KINDS) == {"random", "oldest-node", "ant"}

    def test_make(self):
        agent = make_routing_agent("oldest-node", 2, 5, random.Random(1), history_size=7)
        assert isinstance(agent, OldestNodeAgent)
        assert agent.history_size == 7

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            make_routing_agent("greedy", 0, 0, random.Random(1))

    def test_invalid_history(self):
        with pytest.raises(ConfigurationError):
            agent_of(RandomRoutingAgent, history=0)


class TestMovementAndTracks:
    def test_visiting_gateway_resets_track(self):
        agent = agent_of(RandomRoutingAgent)
        agent.move_to(3, time=5, target_is_gateway=True)
        assert agent.tracks == {3: GatewayTrack(hops=0, visited_at=5)}

    def test_track_hops_grow_with_moves(self):
        agent = agent_of(RandomRoutingAgent)
        agent.move_to(3, time=5, target_is_gateway=True)
        agent.move_to(4, time=6, target_is_gateway=False)
        agent.move_to(5, time=7, target_is_gateway=False)
        assert agent.tracks[3].hops == 2

    def test_track_forgotten_beyond_history(self):
        agent = agent_of(RandomRoutingAgent, history=2)
        agent.move_to(3, time=5, target_is_gateway=True)
        agent.move_to(4, time=6, target_is_gateway=False)
        agent.move_to(5, time=7, target_is_gateway=False)
        agent.move_to(6, time=8, target_is_gateway=False)
        assert 3 not in agent.tracks

    def test_track_survives_to_exactly_history_size_hops(self):
        """The drop bound is ``track.hops + 1 <= history_size``: a track
        must still install at exactly ``history_size`` hops and be
        forgotten only on the hop after."""
        agent = agent_of(RandomRoutingAgent, history=3)
        agent.move_to(1, time=0, target_is_gateway=True)
        agent.move_to(2, time=1, target_is_gateway=False)
        agent.move_to(3, time=2, target_is_gateway=False)
        agent.move_to(4, time=3, target_is_gateway=False)
        # hops == history_size: still remembered and still installable.
        assert agent.tracks[1] == GatewayTrack(hops=3, visited_at=0)
        assert agent.installable_routes(came_from=3) == [(1, 3, 3, 0)]
        agent.move_to(5, time=4, target_is_gateway=False)
        # hops would become history_size + 1: forgotten.
        assert 1 not in agent.tracks
        assert agent.installable_routes(came_from=4) == []

    def test_move_returns_origin_and_records_history(self):
        agent = agent_of(RandomRoutingAgent, start=1)
        origin = agent.move_to(2, time=3, target_is_gateway=False)
        assert origin == 1
        assert agent.location == 2
        assert agent.history.last_visit(2) == 3

    def test_stay_on_gateway_seeds_track(self):
        agent = agent_of(RandomRoutingAgent, start=9)
        agent.stay(time=4, here_is_gateway=True)
        assert agent.tracks[9].hops == 0
        assert agent.history.last_visit(9) == 4

    def test_installable_routes_skip_zero_hop(self):
        agent = agent_of(RandomRoutingAgent)
        agent.move_to(3, time=5, target_is_gateway=True)
        assert agent.installable_routes(came_from=0) == []
        agent.move_to(4, time=6, target_is_gateway=False)
        assert agent.installable_routes(came_from=3) == [(3, 3, 1, 5)]


class TestDecide:
    def test_random_picks_neighbor(self):
        agent = agent_of(RandomRoutingAgent)
        assert agent.decide([4, 5], time=1) in {4, 5}

    def test_none_when_isolated(self):
        assert agent_of(RandomRoutingAgent).decide([], time=1) is None

    def test_oldest_node_prefers_forgotten(self):
        agent = agent_of(OldestNodeAgent, history=5)
        agent.history.record(4, 10)
        assert agent.decide([4, 5], time=11) == 5

    def test_oldest_node_prefers_least_recent(self):
        agent = agent_of(OldestNodeAgent, history=5)
        agent.history.record(4, 10)
        agent.history.record(5, 2)
        assert agent.decide([4, 5], time=11) == 5

    def test_forgetting_makes_node_attractive_again(self):
        agent = agent_of(OldestNodeAgent, history=1)
        agent.history.record(4, 10)
        agent.history.record(5, 11)  # evicts node 4 (capacity 1)
        assert agent.decide([4, 5], time=12) == 4

    def test_stigmergic_decide_avoids_marks(self):
        field = StigmergyField(freshness=8)
        field.stamp(node=0, agent=7, target=4, time=1)
        agent = agent_of(OldestNodeAgent, stigmergic=True)
        assert agent.decide([4, 5], time=1, field=field) == 5

    def test_leave_footprint_gated_on_flag(self):
        field = StigmergyField()
        plain = agent_of(RandomRoutingAgent)
        plain.leave_footprint(4, time=1, field=field)
        assert field.total_marks() == 0
