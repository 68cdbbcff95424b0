"""Unit tests for mapping agent movement policies."""

import random

import pytest

from repro.core.knowledge import TopologyKnowledge
from repro.core.mapping_agents import (
    ConscientiousAgent,
    MAPPING_AGENT_KINDS,
    RandomAgent,
    SuperConscientiousAgent,
    make_mapping_agent,
)
from repro.core.stigmergy import StigmergyField
from repro.errors import ConfigurationError


NODES = 10


def agent_of(cls, start=0, seed=1, stigmergic=False):
    return cls(0, start, random.Random(seed), NODES, stigmergic=stigmergic)


def peer_report(agent, visits):
    """The meeting payload for ``agent`` of a peer that stood on ``visits``."""
    peer = TopologyKnowledge(NODES, agent.knowledge.index)
    for node, time in visits.items():
        peer.observe_node(node, [], time)
    return peer.shareable_edges(), peer.shareable_visits()


class TestFactory:
    def test_kinds_registered(self):
        assert set(MAPPING_AGENT_KINDS) == {
            "random",
            "conscientious",
            "super-conscientious",
        }

    def test_make_by_kind(self):
        agent = make_mapping_agent("random", 3, 7, random.Random(1), NODES)
        assert isinstance(agent, RandomAgent)
        assert agent.agent_id == 3
        assert agent.location == 7

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            make_mapping_agent("clever", 0, 0, random.Random(1), NODES)


class TestRandomAgent:
    def test_moves_to_some_neighbor(self):
        agent = agent_of(RandomAgent)
        choice = agent.choose_next([4, 5, 6], time=1)
        assert choice in {4, 5, 6}

    def test_stranded_returns_none(self):
        assert agent_of(RandomAgent).choose_next([], time=1) is None

    def test_uniformity(self):
        agent = agent_of(RandomAgent)
        picks = [agent.choose_next([1, 2], time=t) for t in range(200)]
        assert 50 < picks.count(1) < 150


class TestConscientiousAgent:
    def test_prefers_unvisited(self):
        agent = agent_of(ConscientiousAgent)
        agent.knowledge.observe_node(1, [], time=5)
        assert agent.choose_next([1, 2], time=6) == 2

    def test_prefers_least_recent(self):
        agent = agent_of(ConscientiousAgent)
        agent.knowledge.observe_node(1, [], time=5)
        agent.knowledge.observe_node(2, [], time=9)
        assert agent.choose_next([1, 2], time=10) == 1

    def test_ignores_second_hand(self):
        agent = agent_of(ConscientiousAgent)
        agent.knowledge.observe_node(1, [], time=5)
        # A peer reports node 2 visited very recently; conscientious
        # ignores that and still sees node 2 as never-visited.
        agent.knowledge.absorb(*peer_report(agent, {2: 100}))
        assert agent.choose_next([1, 2], time=101) == 2

    def test_tie_break_among_equally_old(self):
        agent = agent_of(ConscientiousAgent)
        picks = {agent.choose_next([1, 2, 3], time=1) for __ in range(50)}
        assert picks <= {1, 2, 3}
        assert len(picks) > 1  # random tie-break actually varies


class TestSuperConscientiousAgent:
    def test_uses_second_hand(self):
        agent = agent_of(SuperConscientiousAgent)
        agent.knowledge.observe_node(1, [], time=5)
        agent.knowledge.absorb(*peer_report(agent, {2: 100}))
        # Node 2 was (reportedly) visited at 100, node 1 first-hand at 5.
        assert agent.choose_next([1, 2], time=101) == 1

    def test_first_hand_still_counts(self):
        agent = agent_of(SuperConscientiousAgent)
        agent.knowledge.observe_node(1, [], time=50)
        agent.knowledge.absorb(*peer_report(agent, {2: 10}))
        assert agent.choose_next([1, 2], time=60) == 2


class TestStigmergicBehaviour:
    def test_avoids_fresh_footprint(self):
        field = StigmergyField()
        field.stamp(node=0, agent=9, target=1, time=1)
        agent = agent_of(ConscientiousAgent, stigmergic=True)
        assert agent.choose_next([1, 2], time=1, field=field) == 2

    def test_plain_agent_ignores_footprints(self):
        field = StigmergyField()
        field.stamp(node=0, agent=9, target=1, time=1)
        agent = agent_of(ConscientiousAgent, stigmergic=False)
        agent.knowledge.observe_node(2, [], time=0)
        assert agent.choose_next([1, 2], time=1, field=field) == 1

    def test_fallback_when_everything_vetoed(self):
        field = StigmergyField()
        field.stamp(node=0, agent=9, target=1, time=1)
        agent = agent_of(RandomAgent, stigmergic=True)
        assert agent.choose_next([1], time=1, field=field) == 1

    def test_leave_footprint_only_when_stigmergic(self):
        field = StigmergyField()
        plain = agent_of(RandomAgent, stigmergic=False)
        plain.leave_footprint(5, time=1, field=field)
        assert field.total_marks() == 0
        stig = agent_of(RandomAgent, stigmergic=True)
        stig.leave_footprint(5, time=1, field=field)
        assert field.avoided_targets(0, now=1) == {5}

    def test_self_avoidance(self):
        # Single agent avoids repeating its previous exit from a node.
        field = StigmergyField()
        agent = agent_of(RandomAgent, stigmergic=True)
        agent.leave_footprint(1, time=1, field=field)
        picks = {agent.choose_next([1, 2, 3], time=2, field=field) for __ in range(30)}
        assert 1 not in picks


class TestStepProtocol:
    def test_observe_records_first_hand(self):
        agent = agent_of(RandomAgent, start=4)
        agent.observe([5, 6], time=3)
        assert agent.knowledge.first_hand_edges == {(4, 5), (4, 6)}
        assert agent.knowledge.last_first_hand_visit(4) == 3

    def test_move_to(self):
        agent = agent_of(RandomAgent, start=4)
        agent.move_to(9)
        assert agent.location == 9
