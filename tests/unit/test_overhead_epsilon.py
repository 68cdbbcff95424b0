"""Unit tests for overhead accounting and epsilon-randomized agents."""

import random

import pytest

from repro.core.mapping_agents import ConscientiousAgent, make_mapping_agent
from repro.core.overhead import OverheadMeter, aggregate_overheads
from repro.core.stigmergy import StigmergyField
from repro.errors import ConfigurationError
from repro.mapping.world import MappingWorldConfig, run_mapping

NODES = 10


class TestOverheadMeter:
    def test_starts_zero(self):
        meter = OverheadMeter()
        assert meter.as_dict() == {name: 0 for name in meter.as_dict()}

    def test_merge(self):
        a = OverheadMeter(decisions=2, candidates_examined=10)
        b = OverheadMeter(decisions=3, meetings=1)
        merged = a.merged_with(b)
        assert merged.decisions == 5
        assert merged.candidates_examined == 10
        assert merged.meetings == 1

    def test_per_decision(self):
        meter = OverheadMeter(decisions=4, candidates_examined=12)
        assert meter.per_decision()["candidates_examined"] == pytest.approx(3.0)

    def test_per_decision_zero_safe(self):
        assert OverheadMeter().per_decision()["candidates_examined"] == 0.0

    def test_aggregate(self):
        meters = [OverheadMeter(decisions=1) for __ in range(5)]
        assert aggregate_overheads(meters).decisions == 5


class TestAgentCounting:
    def test_decisions_and_candidates_counted(self):
        agent = ConscientiousAgent(0, 0, random.Random(1), NODES)
        agent.choose_next([1, 2, 3], time=1)
        agent.choose_next([4], time=2)
        assert agent.overhead.decisions == 2
        assert agent.overhead.candidates_examined == 4

    def test_stranded_agent_counts_nothing(self):
        agent = ConscientiousAgent(0, 0, random.Random(1), NODES)
        agent.choose_next([], time=1)
        assert agent.overhead.decisions == 0

    def test_stigmergic_ops_counted(self):
        field = StigmergyField()
        agent = ConscientiousAgent(0, 0, random.Random(1), NODES, stigmergic=True)
        target = agent.choose_next([1, 2], time=1, field=field)
        agent.leave_footprint(target, time=1, field=field)
        assert agent.overhead.footprint_lookups == 1
        assert agent.overhead.footprints_stamped == 1

    def test_plain_agent_has_no_board_ops(self):
        field = StigmergyField()
        agent = ConscientiousAgent(0, 0, random.Random(1), NODES, stigmergic=False)
        target = agent.choose_next([1, 2], time=1, field=field)
        agent.leave_footprint(target, time=1, field=field)
        assert agent.overhead.footprint_lookups == 0
        assert agent.overhead.footprints_stamped == 0


class TestWorldOverheadAggregation:
    def test_mapping_result_carries_overhead(self, small_static_network):
        config = MappingWorldConfig(population=4, max_steps=4000)
        result = run_mapping(small_static_network, config, seed=3)
        assert result.overhead["candidates_examined"] > 0
        assert result.overhead["footprint_lookups"] == 0.0

    def test_stigmergic_run_has_board_ops(self, small_static_network):
        config = MappingWorldConfig(population=4, stigmergic=True, max_steps=4000)
        result = run_mapping(small_static_network, config, seed=3)
        assert result.overhead["footprint_lookups"] == pytest.approx(1.0)
        assert result.overhead["footprints_stamped"] == pytest.approx(1.0)


class TestEpsilon:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ConscientiousAgent(0, 0, random.Random(1), NODES, epsilon=1.5)
        with pytest.raises(ConfigurationError):
            MappingWorldConfig(epsilon=-0.1)

    def test_factory_passes_epsilon(self):
        agent = make_mapping_agent(
            "super-conscientious", 0, 0, random.Random(1), NODES, epsilon=0.2
        )
        assert agent.epsilon == 0.2

    def test_epsilon_zero_is_pure_policy(self):
        agent = ConscientiousAgent(0, 0, random.Random(1), NODES, epsilon=0.0)
        agent.knowledge.observe_node(1, [], time=5)
        picks = {agent.choose_next([1, 2], time=6) for __ in range(30)}
        assert picks == {2}

    def test_epsilon_one_is_uniform(self):
        agent = ConscientiousAgent(0, 0, random.Random(1), NODES, epsilon=1.0)
        agent.knowledge.observe_node(1, [], time=5)
        picks = {agent.choose_next([1, 2], time=6) for __ in range(60)}
        assert picks == {1, 2}

    def test_intermediate_epsilon_mixes(self):
        agent = ConscientiousAgent(0, 0, random.Random(7), NODES, epsilon=0.5)
        agent.knowledge.observe_node(1, [], time=5)
        picks = [agent.choose_next([1, 2], time=6) for __ in range(200)]
        # Policy always says 2; epsilon moves ~25% of picks to node 1.
        assert 20 < picks.count(1) < 90
