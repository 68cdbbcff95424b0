"""Unit tests: worlds publish hooks that an event trace can consume."""

from repro.mapping.world import MappingWorld, MappingWorldConfig
from repro.routing.world import RoutingWorld, RoutingWorldConfig


class TestMappingHooks:
    def test_agent_moved_fired_per_move(self, line5):
        world = MappingWorld(
            line5, MappingWorldConfig(population=2, max_steps=10), seed=1
        )
        moves = []
        world.engine.hooks.subscribe(
            "agent_moved", lambda time, agent, to: moves.append((time, agent, to))
        )
        world.run()
        assert moves, "agents on a line must move"
        assert {agent for __, agent, __ in moves} <= {0, 1}

    def test_knowledge_recorded_every_step(self, line5):
        world = MappingWorld(
            line5, MappingWorldConfig(population=1, max_steps=5), seed=1
        )
        samples = []
        world.engine.hooks.subscribe(
            "knowledge_recorded",
            lambda time, average, minimum: samples.append((time, average, minimum)),
        )
        result = world.run()
        assert len(samples) == result.steps_simulated
        for __, average, minimum in samples:
            assert 0.0 <= minimum <= average <= 1.0


class TestRoutingHooks:
    def test_connectivity_recorded_every_step(self, gateway_line4):
        config = RoutingWorldConfig(
            population=3, total_steps=12, converged_after=6
        )
        world = RoutingWorld(gateway_line4, config, seed=2)
        samples = []
        world.engine.hooks.subscribe(
            "connectivity_recorded",
            lambda time, fraction: samples.append((time, fraction)),
        )
        result = world.run()
        assert [t for t, __ in samples] == result.times
        assert [f for __, f in samples] == result.connectivity
