"""Unit tests for the mapping world and its metrics."""

import random

import pytest

from repro.core.mapping_agents import ConscientiousAgent
from repro.errors import ConfigurationError
from repro.mapping.metrics import KnowledgeTracker
from repro.mapping.world import MappingWorld, MappingWorldConfig, run_mapping

NODES = 10


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MappingWorldConfig(population=0)
        with pytest.raises(ConfigurationError):
            MappingWorldConfig(max_steps=0)
        with pytest.raises(ConfigurationError):
            MappingWorldConfig(degrade_fraction=1.5)

    @pytest.mark.parametrize("amount", [1.0, 1.5, -0.1])
    def test_bad_degrade_amount_rejected_when_built(self, amount):
        # Caught here, not at the degradation step mid-run.
        with pytest.raises(ConfigurationError, match="degrade_amount"):
            MappingWorldConfig(degrade_at=5, degrade_amount=amount)

    def test_defaults(self):
        config = MappingWorldConfig()
        assert config.agent_kind == "conscientious"
        assert config.cooperation


class TestKnowledgeTracker:
    def test_records_fractions(self):
        tracker = KnowledgeTracker(total_edges=4)
        agent = ConscientiousAgent(0, 0, random.Random(1), NODES)
        agent.knowledge.observe_node(0, [1, 2], time=1)
        finished = tracker.record(1, [agent])
        assert not finished
        assert tracker.average_knowledge == [0.5]
        assert tracker.minimum_knowledge == [0.5]

    def test_finishing_detected_once(self):
        tracker = KnowledgeTracker(total_edges=1)
        agent = ConscientiousAgent(0, 0, random.Random(1), NODES)
        agent.knowledge.observe_node(0, [1], time=1)
        assert tracker.record(1, [agent])
        assert tracker.finishing_time == 1
        assert not tracker.record(2, [agent])  # only reported once
        assert tracker.finishing_time == 1

    def test_minimum_gates_finishing(self):
        tracker = KnowledgeTracker(total_edges=1)
        done = ConscientiousAgent(0, 0, random.Random(1), NODES)
        done.knowledge.observe_node(0, [1], time=1)
        behind = ConscientiousAgent(1, 0, random.Random(2), NODES)
        assert not tracker.record(1, [done, behind])
        assert tracker.minimum_knowledge == [0.0]

    def test_live_edges_mode_ignores_vanished_edges(self):
        tracker = KnowledgeTracker(total_edges=2)
        agent = ConscientiousAgent(0, 0, random.Random(1), NODES)
        agent.knowledge.observe_node(0, [1, 2], time=1)  # knows (0,1), (0,2)
        live = frozenset({(0, 1), (5, 6)})
        assert not tracker.record(1, [agent], live_edges=live)
        assert tracker.minimum_knowledge == [0.5]  # (0,2) no longer counts


class TestLiveEdgeCoverage:
    def test_degraded_world_matches_explicit_walk(self, small_static_network):
        config = MappingWorldConfig(
            population=4,
            max_steps=40,
            degrade_at=10,
            degrade_fraction=0.5,
            degrade_amount=0.6,
        )
        world = MappingWorld(small_static_network, config, seed=4)
        original = world.topology.edge_set()
        degraded_steps = []

        def walk(time, average, minimum):
            live = world.topology.edge_set()
            fractions = [
                sum(1 for edge in live if agent.knowledge.knows_edge(edge)) / len(live)
                for agent in world.agents
            ]
            assert average == sum(fractions) / len(fractions)
            assert minimum == min(fractions)
            if live != original:
                degraded_steps.append(time)

        world.engine.hooks.subscribe("knowledge_recorded", walk)
        world.run()
        assert degraded_steps and degraded_steps[0] >= 10


class TestMappingWorld:
    def test_single_agent_finishes_line(self, line5):
        config = MappingWorldConfig(agent_kind="conscientious", max_steps=200)
        result = MappingWorld(line5, config, seed=1).run()
        assert result.finished
        assert result.finishing_time <= 50

    def test_random_agent_finishes_ring(self, ring6):
        config = MappingWorldConfig(agent_kind="random", max_steps=2000)
        result = MappingWorld(ring6, config, seed=2).run()
        assert result.finished

    def test_directed_cycle_forces_full_loop(self, directed_cycle4):
        config = MappingWorldConfig(agent_kind="conscientious", max_steps=50)
        result = MappingWorld(directed_cycle4, config, seed=1).run()
        # The agent can only go around; 4 distinct nodes must be stood on.
        assert result.finished
        assert result.finishing_time >= 4

    def test_unreachable_budget_returns_unfinished(self, line5):
        config = MappingWorldConfig(agent_kind="conscientious", max_steps=2)
        result = MappingWorld(line5, config, seed=1).run()
        assert not result.finished
        assert result.finishing_time is None
        assert result.steps_simulated == 2

    def test_team_faster_than_single(self, small_static_network):
        single = run_mapping(
            small_static_network,
            MappingWorldConfig(agent_kind="conscientious", population=1, max_steps=5000),
            seed=3,
        )
        team = run_mapping(
            small_static_network,
            MappingWorldConfig(agent_kind="conscientious", population=8, max_steps=5000),
            seed=3,
        )
        assert team.finishing_time < single.finishing_time

    def test_cooperation_off_slows_team(self, small_static_network):
        on = run_mapping(
            small_static_network,
            MappingWorldConfig(population=6, cooperation=True, max_steps=8000),
            seed=4,
        )
        off = run_mapping(
            small_static_network,
            MappingWorldConfig(population=6, cooperation=False, max_steps=8000),
            seed=4,
        )
        assert on.finishing_time <= off.finishing_time
        assert on.meetings > 0
        assert off.meetings == 0

    def test_determinism(self, small_static_network):
        config = MappingWorldConfig(population=4, max_steps=4000)
        a = run_mapping(small_static_network, config, seed=5)
        b = run_mapping(small_static_network, config, seed=5)
        assert a.finishing_time == b.finishing_time
        assert a.average_knowledge == b.average_knowledge

    def test_different_seeds_vary(self, small_static_network):
        config = MappingWorldConfig(population=4, max_steps=4000)
        results = {
            run_mapping(small_static_network, config, seed=s).finishing_time
            for s in range(6)
        }
        assert len(results) > 1

    def test_knowledge_series_monotone(self, small_static_network):
        config = MappingWorldConfig(population=4, max_steps=4000)
        result = run_mapping(small_static_network, config, seed=6)
        for earlier, later in zip(result.average_knowledge, result.average_knowledge[1:]):
            assert later >= earlier

    def test_degradation_shrinks_target(self, small_static_network):
        config = MappingWorldConfig(
            population=6,
            max_steps=8000,
            degrade_at=5,
            degrade_fraction=0.2,
            degrade_amount=0.4,
        )
        world = MappingWorld(small_static_network, config, seed=7)
        edges_before = small_static_network.edge_count
        result = world.run()
        assert small_static_network.edge_count < edges_before
        assert result.finished


class TestNeighbourRowCache:
    """The world's per-epoch neighbour rows follow every topology change."""

    DEGRADE_AT = 5
    BLACKOUT_AT = 10

    @staticmethod
    def _network():
        from repro.net.generator import GeneratorConfig, NetworkGenerator

        config = GeneratorConfig(
            node_count=30,
            target_edges=None,
            range_heterogeneity=0.3,
            require_strong_connectivity=True,
        )
        return NetworkGenerator(config, seed=99).generate_static()

    def _world(self, plan=None):
        config = MappingWorldConfig(
            population=6,
            max_steps=30,
            degrade_at=self.DEGRADE_AT,
            degrade_fraction=0.5,
            degrade_amount=0.6,
            fault_plan=plan,
            check_invariants=False,
        )
        return MappingWorld(self._network(), config, seed=3)

    def _blackout_plan(self):
        """Block an out-link of the node agent 0 stands on when it fires."""
        from repro.faults.plan import FaultPlan

        dry = self._world()
        for __ in range(self.BLACKOUT_AT - 1):
            dry.engine.step()
        source = dry.agents[0].location
        destination = min(dry.topology.out_neighbors(source))
        plan = FaultPlan().blackout(self.BLACKOUT_AT, source, destination)
        return plan, source

    def test_agents_observe_and_choose_from_post_change_rows(self, monkeypatch):
        from repro.core.mapping_agents import MappingAgent

        plan, blocked_source = self._blackout_plan()
        world = self._world(plan)
        topology = world.topology
        original = {node: sorted(topology.out_neighbors(node)) for node in topology.node_ids}
        observed, chosen_from = [], []
        observe, choose_next = MappingAgent.observe, MappingAgent.choose_next

        def spy_observe(agent, out_neighbors, time, row=None):
            live = sorted(topology.out_neighbors(agent.location))
            observed.append((time, agent.location, list(out_neighbors), row, live))
            return observe(agent, out_neighbors, time, row)

        def spy_choose(agent, out_neighbors, time, field=None):
            live = sorted(topology.out_neighbors(agent.location))
            chosen_from.append((time, list(out_neighbors), live))
            return choose_next(agent, out_neighbors, time, field)

        monkeypatch.setattr(MappingAgent, "observe", spy_observe)
        monkeypatch.setattr(MappingAgent, "choose_next", spy_choose)
        world.run()

        changed_after_degrade = changed_after_blackout = 0
        position = world.edge_index.position
        for time, location, neighbors, row, live in observed:
            assert neighbors == live, (time, location)
            expected = sum(1 << position((location, neighbor)) for neighbor in live)
            assert row == expected, (time, location)
            if live != original[location]:
                if time < self.BLACKOUT_AT:
                    changed_after_degrade += 1
                elif location == blocked_source:
                    changed_after_blackout += 1
        for time, neighbors, live in chosen_from:
            assert neighbors == live, time
        # Both changes reached rows the agents then stood on, so a cache
        # that was never dropped would have shown them the old links.
        assert changed_after_degrade > 0
        assert changed_after_blackout > 0


class TestRespawn:
    """A respawned agent's fresh store stays on the world's edge index."""

    CRASH_AT = 6

    def _world(self, plan=None):
        config = MappingWorldConfig(
            population=8, max_steps=80, fault_plan=plan, check_invariants=False
        )
        return MappingWorld(TestNeighbourRowCache._network(), config, seed=5)

    def test_respawned_agent_keeps_the_index_and_meets_peers(self, monkeypatch):
        from repro.core.knowledge import TopologyKnowledge
        from repro.core.mapping_agents import MappingAgent
        from repro.faults.plan import parse_fault_plan

        dry = self._world()
        for __ in range(self.CRASH_AT - 1):
            dry.engine.step()
        crashed = dry.agents[0].location
        world = self._world(parse_fault_plan(f"crash@{self.CRASH_AT}:{crashed};policy=respawn"))
        respawned, absorbed = [], []
        reset, absorb = MappingAgent.reset_for_respawn, TopologyKnowledge.absorb

        def spy_reset(agent, start, time):
            reset(agent, start, time)
            respawned.append((agent, agent.knowledge))

        def spy_absorb(store, edges, visits):
            absorb(store, edges, visits)
            absorbed.append(store)

        monkeypatch.setattr(MappingAgent, "reset_for_respawn", spy_reset)
        monkeypatch.setattr(TopologyKnowledge, "absorb", spy_absorb)
        result = world.run()

        assert respawned
        for agent, store in respawned:
            assert store.index is world.edge_index
            # The fresh store met peers afterwards and learned from them.
            assert any(absorbed_store is store for absorbed_store in absorbed)
            assert store.known_edge_count > 0
        assert result.resilience is not None
