"""Unit tests for the routing world."""

import pytest

from repro.core.batch import BATCH_MIN_POPULATION
from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.net.channel import ChannelConfig
from repro.net.health import HealthConfig
from repro.obs.collector import ObsConfig
from repro.routing.table import TableGuard
from repro.routing.world import RoutingResult, RoutingWorld, RoutingWorldConfig, run_routing


def small_config(**overrides):
    defaults = dict(
        agent_kind="oldest-node",
        population=6,
        history_size=8,
        total_steps=60,
        converged_after=30,
    )
    defaults.update(overrides)
    return RoutingWorldConfig(**defaults)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RoutingWorldConfig(population=0)
        with pytest.raises(ConfigurationError):
            RoutingWorldConfig(history_size=0)
        with pytest.raises(ConfigurationError):
            RoutingWorldConfig(total_steps=0)
        with pytest.raises(ConfigurationError):
            RoutingWorldConfig(total_steps=10, converged_after=20)

    @pytest.mark.parametrize("route_ttl", [0, -1])
    def test_bad_route_ttl_rejected_when_built(self, route_ttl):
        with pytest.raises(ConfigurationError, match="route_ttl"):
            RoutingWorldConfig(route_ttl=route_ttl)

    @pytest.mark.parametrize("walk_ttl", [0, -3])
    def test_bad_walk_ttl_rejected_when_built(self, walk_ttl):
        # A walk of no hops counts only the gateways as connected, and the
        # fast path and the reference walk agree on that, so no later
        # check would notice.
        with pytest.raises(ConfigurationError, match="walk_ttl"):
            RoutingWorldConfig(walk_ttl=walk_ttl)


class TestBatchEngineScope:
    """The engine runs exactly on the configuration it vectorises."""

    @pytest.mark.parametrize(
        "overrides, feature",
        [
            ({"stigmergic": True}, "stigmergic"),
            ({"health": HealthConfig()}, "health"),
            ({"channel": ChannelConfig(loss=0.1)}, "lossy channel"),
            (
                {"fault_plan": FaultPlan().loss_burst(5, 1, 0.5).loss_clear(9, 1)},
                "loss bursts",
            ),
            ({"agent_kind": "ant"}, "'ant'"),
        ],
    )
    def test_out_of_scope_configs(self, small_manet, overrides, feature):
        with pytest.raises(ConfigurationError, match=feature):
            RoutingWorld(small_manet, small_config(batch_agents=True, **overrides), seed=4)
        world = RoutingWorld(small_manet, small_config(**overrides), seed=4)
        assert world._batch is None

    @pytest.mark.parametrize("kind", ["random", "oldest-node"])
    def test_in_scope_configs_build_the_engine(self, small_manet, kind):
        plan = (
            FaultPlan()
            .crash(3, 2)
            .gray_failure(4, 5, 0.5)
            .corrupt_agent(5, 1)
        )
        config = small_config(
            agent_kind=kind,
            population=BATCH_MIN_POPULATION,
            visiting=True,
            fault_plan=plan,
            channel=ChannelConfig(),
            table_guard=TableGuard(),
            obs=ObsConfig(metrics=True, events=True, profile=True),
        )
        assert RoutingWorld(small_manet, config, seed=4)._batch is not None

    @pytest.mark.parametrize("visiting", [False, True])
    def test_a_team_below_the_crossover_runs_per_object(self, small_manet, visiting):
        config = small_config(population=BATCH_MIN_POPULATION - 1, visiting=visiting)
        assert RoutingWorld(small_manet, config, seed=4)._batch is None
        forced = small_config(population=6, visiting=visiting, batch_agents=True)
        assert RoutingWorld(small_manet, forced, seed=4)._batch is not None


class TestRoutingResult:
    def test_mean_connectivity_window(self):
        result = RoutingResult(
            times=[1, 2, 3, 4],
            connectivity=[0.0, 0.2, 0.6, 0.8],
            converged_after=3,
        )
        assert result.mean_connectivity == pytest.approx(0.7)

    def test_stability(self):
        result = RoutingResult(
            times=[3, 4], connectivity=[0.5, 0.5], converged_after=3
        )
        assert result.connectivity_stability == 0.0

    def test_empty_window(self):
        assert RoutingResult(converged_after=10).mean_connectivity == 0.0


class TestRoutingWorld:
    def test_requires_gateway(self, ring6):
        with pytest.raises(ConfigurationError):
            RoutingWorld(ring6, small_config(), seed=1)

    def test_spawned_agents_remember_their_start_node(self, gateway_line4):
        """Regression: off-gateway starters must seed their history with
        the start node (time 0), exactly like gateway starters — without
        it an oldest-node agent treated its own start as never-visited
        and doubled back to it on the first tie."""
        world = RoutingWorld(gateway_line4, small_config(population=8), seed=3)
        gateways = set(world.topology.all_gateway_ids)
        assert any(agent.location not in gateways for agent in world.agents)
        for agent in world.agents:
            assert agent.history.last_visit(agent.location) == 0
            if agent.location in gateways:
                assert agent.tracks[agent.location].hops == 0
            else:
                assert agent.tracks == {}

    def test_agents_build_connectivity_on_line(self, gateway_line4):
        result = run_routing(gateway_line4, small_config(), seed=1)
        # A static line with a gateway and wandering agents must end up
        # mostly connected once routes are installed.
        assert result.mean_connectivity > 0.5

    def test_connectivity_series_length(self, gateway_line4):
        result = run_routing(gateway_line4, small_config(total_steps=40), seed=2)
        assert len(result.times) == 40
        assert result.times[0] == 1
        assert result.times[-1] == 40

    def test_connectivity_in_unit_range(self, small_manet):
        result = run_routing(small_manet, small_config(), seed=3)
        assert all(0.0 <= v <= 1.0 for v in result.connectivity)

    def test_determinism(self, small_manet):
        # Regenerating the fixture would reset mobility; instead compare
        # two worlds on identically generated topologies.
        from repro.net.generator import GeneratorConfig, NetworkGenerator

        config = GeneratorConfig(
            node_count=40,
            target_edges=None,
            require_strong_connectivity=False,
            gateway_count=3,
            mobile_fraction=0.5,
        )
        a = run_routing(
            NetworkGenerator(config, 9).generate_manet(), small_config(), seed=5
        )
        b = run_routing(
            NetworkGenerator(config, 9).generate_manet(), small_config(), seed=5
        )
        assert a.connectivity == b.connectivity

    def test_more_agents_more_connectivity(self, small_manet):
        from repro.net.generator import GeneratorConfig, NetworkGenerator

        config = GeneratorConfig(
            node_count=40,
            target_edges=None,
            require_strong_connectivity=False,
            gateway_count=3,
            mobile_fraction=0.5,
        )
        few = run_routing(
            NetworkGenerator(config, 11).generate_manet(),
            small_config(population=2),
            seed=6,
        )
        many = run_routing(
            NetworkGenerator(config, 11).generate_manet(),
            small_config(population=20),
            seed=6,
        )
        assert many.mean_connectivity > few.mean_connectivity

    def test_meetings_counted_only_when_visiting(self, gateway_line4):
        visiting = run_routing(gateway_line4, small_config(visiting=True), seed=7)
        silent = run_routing(gateway_line4, small_config(visiting=False), seed=7)
        assert visiting.meetings > 0
        assert silent.meetings == 0

    def test_stigmergic_agents_run(self, small_manet):
        result = run_routing(small_manet, small_config(stigmergic=True), seed=8)
        assert len(result.connectivity) == 60

    def test_tables_populated(self, gateway_line4):
        config = small_config()
        world = RoutingWorld(gateway_line4, config, seed=9)
        world.run()
        assert world.tables.total_entries() > 0

    @pytest.mark.parametrize("batch", [False, True])
    def test_tables_built_only_where_agents_installed(self, small_manet, batch):
        world = RoutingWorld(small_manet, small_config(batch_agents=batch), seed=9)
        visited = set()
        for __ in range(5):
            world.engine.step()
            visited.update(agent.location for agent in world.agents)
        built = world.tables._tables
        assert world.tables.total_entries() > 0
        assert set(built) <= visited
        assert len(built) < small_manet.node_count

    def test_route_ttl_expires_entries(self, gateway_line4):
        config = small_config(route_ttl=2, population=1, total_steps=60)
        world = RoutingWorld(gateway_line4, config, seed=10)
        world.run()
        # With a 2-step TTL only entries installed in the last 2 steps
        # can survive.
        for node in gateway_line4.node_ids:
            for entry in world.tables.table(node).entries_by_preference():
                assert entry.installed_at >= 60 - 2
