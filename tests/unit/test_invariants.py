"""Unit tests for the runtime cross-layer invariant checker."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import InvariantError
from repro.mapping.world import MappingWorld, MappingWorldConfig
from repro.net.geometry import Arena, Point
from repro.net.node import Node
from repro.net.radio import FixedRange
from repro.net.topology import Topology
from repro.routing.table import RouteEntry
from repro.routing.world import RoutingWorld, RoutingWorldConfig
from repro.sim.invariants import ENV_FLAG, InvariantChecker, default_invariants_enabled


def routing_config(**overrides):
    defaults = dict(
        agent_kind="oldest-node",
        population=4,
        history_size=8,
        total_steps=30,
        converged_after=15,
    )
    defaults.update(overrides)
    return RoutingWorldConfig(**defaults)


class TestDefaultEnabled:
    @pytest.mark.parametrize("value", ["1", "true", "yes", "on", "anything"])
    def test_truthy_values(self, monkeypatch, value):
        monkeypatch.setenv(ENV_FLAG, value)
        assert default_invariants_enabled()

    @pytest.mark.parametrize("value", ["", "0", "false", "no", "off", " OFF "])
    def test_falsy_values(self, monkeypatch, value):
        monkeypatch.setenv(ENV_FLAG, value)
        assert not default_invariants_enabled()

    def test_unset_means_disabled(self, monkeypatch):
        monkeypatch.delenv(ENV_FLAG, raising=False)
        assert not default_invariants_enabled()


class TestWorldWiring:
    def test_config_true_installs_checker(self, gateway_line4, monkeypatch):
        monkeypatch.setenv(ENV_FLAG, "0")
        world = RoutingWorld(
            gateway_line4, routing_config(check_invariants=True), seed=3
        )
        assert world.invariants is not None

    def test_config_false_wins_over_env(self, gateway_line4, monkeypatch):
        monkeypatch.setenv(ENV_FLAG, "1")
        world = RoutingWorld(
            gateway_line4, routing_config(check_invariants=False), seed=3
        )
        assert world.invariants is None

    def test_config_none_defers_to_env(self, gateway_line4, monkeypatch):
        monkeypatch.setenv(ENV_FLAG, "0")
        assert RoutingWorld(gateway_line4, routing_config(), seed=3).invariants is None
        monkeypatch.setenv(ENV_FLAG, "1")
        assert (
            RoutingWorld(gateway_line4, routing_config(), seed=3).invariants
            is not None
        )

    def test_checker_runs_every_step_of_a_healthy_run(self, gateway_line4):
        world = RoutingWorld(
            gateway_line4, routing_config(check_invariants=True), seed=3
        )
        world.run()
        assert world.invariants.checks == world.config.total_steps
        assert world.invariants.violations == []

    def test_mapping_world_wires_checker_too(self, line5):
        config = MappingWorldConfig(
            agent_kind="conscientious",
            population=3,
            max_steps=50,
            check_invariants=True,
        )
        world = MappingWorld(line5, config, seed=4)
        assert world.invariants is not None
        world.run()
        assert world.invariants.checks > 0
        assert world.invariants.violations == []


class TestPlantedViolations:
    def _world(self, topology):
        # check_invariants=False: we drive the checker by hand.
        return RoutingWorld(
            topology, routing_config(check_invariants=False), seed=5
        )

    def test_healthy_world_scans_clean(self, gateway_line4):
        world = self._world(gateway_line4)
        checker = InvariantChecker(world)
        assert checker.scan(now=0) == []
        assert checker.check_now(now=0) == []
        assert checker.checks == 1

    def test_route_entry_with_down_next_hop(self, gateway_line4):
        world = self._world(gateway_line4)
        world.tables.table(2).install(
            RouteEntry(gateway=0, next_hop=1, hops=2, installed_at=0)
        )
        world.topology.set_node_down(1)
        checker = InvariantChecker(world)
        with pytest.raises(InvariantError, match="next hop 1 is down"):
            checker.check_now(now=1)
        assert checker.violations  # recorded even though it raised

    def test_route_entry_referencing_unknown_node(self, gateway_line4):
        world = self._world(gateway_line4)
        world.tables.table(2).install(
            RouteEntry(gateway=0, next_hop=99, hops=2, installed_at=0)
        )
        checker = InvariantChecker(world, raise_on_violation=False)
        problems = checker.check_now(now=1)
        assert any("unknown node" in p for p in problems)

    def test_route_entry_outliving_ttl(self, gateway_line4):
        world = self._world(gateway_line4)
        world.tables.table(2).install(
            RouteEntry(gateway=0, next_hop=1, hops=2, installed_at=0)
        )
        checker = InvariantChecker(world, raise_on_violation=False)
        ttl = world.tables.ttl
        # An entry installed at t is valid through t + ttl - 1 and is
        # due for expiry at exactly t + ttl — the checker flags it from
        # that step on (matching RoutingTable.expire's boundary).
        assert checker.check_now(now=ttl - 1) == []
        assert any("outlived ttl" in p for p in checker.check_now(now=ttl))

    def test_route_entry_with_zero_hops(self, gateway_line4):
        world = self._world(gateway_line4)
        # install() itself rejects hops < 1, so plant the corruption
        # behind its back — exactly what the checker exists to catch.
        world.tables.table(2)._entries[0] = RouteEntry(
            gateway=0, next_hop=1, hops=0, installed_at=0
        )
        checker = InvariantChecker(world, raise_on_violation=False)
        assert any("0 hops" in p for p in checker.check_now(now=1))

    def test_footprint_on_down_node(self, gateway_line4):
        world = self._world(gateway_line4)
        world.field.stamp(node=2, agent=0, target=3, time=0)
        world.topology.set_node_down(2)
        # Park the agents off the down node so only the board violates.
        for agent in world.agents:
            agent.location = 0
        checker = InvariantChecker(world, raise_on_violation=False)
        problems = checker.check_now(now=1)
        assert any("down node 2" in p for p in problems)

    def test_footprint_pointing_at_unknown_node(self, gateway_line4):
        world = self._world(gateway_line4)
        world.field.stamp(node=2, agent=0, target=77, time=0)
        checker = InvariantChecker(world, raise_on_violation=False)
        assert any("unknown node 77" in p for p in checker.check_now(now=1))

    def test_agent_on_down_node(self, gateway_line4):
        world = self._world(gateway_line4)
        world.agents[0].location = 3
        world.topology.set_node_down(3)
        checker = InvariantChecker(world, raise_on_violation=False)
        # No injector: every agent counts as acting.
        world.injector = None
        assert any("acts on down node 3" in p for p in checker.check_now(now=1))

    @staticmethod
    def _geometric_line():
        """Geometric line 0 - 1 - 2 - 3 (unit spacing, range 1.5), refreshed."""
        nodes = [Node(i, Point(float(i), 0.0), FixedRange(1.5)) for i in range(4)]
        topology = Topology(nodes, Arena(10.0, 10.0))
        topology.recompute()
        return topology

    @staticmethod
    def _topology_scan(topology):
        """Every violation the checker reports for a topology-only world."""
        return InvariantChecker(SimpleNamespace(topology=topology, agents=[])).scan(0)

    @staticmethod
    def _plant(topology, add=(), drop=()):
        """Corrupt the packed edge array behind the engine's back."""
        n = topology.node_count
        edges = set(topology.packed_edges().tolist())
        edges.update(u * n + v for u, v in add)
        edges.difference_update(u * n + v for u, v in drop)
        topology._edges = np.array(sorted(edges), dtype=np.int64)

    def test_served_row_missing_edge(self):
        topology = self._geometric_line()
        topology.adjacency_view()[0].remove(1)
        assert self._topology_scan(topology) == ["row of node 0 missing edge 0->1"]

    def test_served_row_phantom_edge(self):
        topology = self._geometric_line()
        topology.out_neighbors(0).append(3)
        assert self._topology_scan(topology) == [
            "row of node 0 has phantom edge 0->3"
        ]

    def test_served_row_out_of_order(self):
        topology = self._geometric_line()
        topology.adjacency_view()[1].reverse()
        assert self._topology_scan(topology) == [
            "row of node 1 is not strictly ascending"
        ]

    def test_adjacency_missing_edge(self):
        topology = self._geometric_line()
        self._plant(topology, drop=[(0, 1)])
        assert self._topology_scan(topology) == [
            "packed edge array missing edge 0->1",
        ]

    def test_adjacency_phantom_edge(self):
        topology = self._geometric_line()
        self._plant(topology, add=[(0, 3)])
        assert self._topology_scan(topology) == [
            "packed edge array has phantom edge 0->3",
        ]

    def test_adjacency_naming_an_unknown_node(self):
        # Edge 0->4 would pack to 0*4+4 == 1*4+0, so dropping 1->0 as
        # well leaves the rows' packed edges equal to the rebuild's: the
        # rows must be compared row by row, not packed.
        topology = self._geometric_line()
        rows = topology.adjacency_view()
        rows[0].append(4)
        rows[1].remove(0)
        assert self._topology_scan(topology) == [
            "row of node 0 has phantom edge 0->4",
            "row of node 1 missing edge 1->0",
        ]

    def test_down_node_keeps_out_links(self):
        topology = self._geometric_line()
        topology.set_node_down(1)
        topology.recompute()
        self._plant(topology, add=[(1, 0)])
        assert self._topology_scan(topology) == [
            "down node 1 still has out-links",
            "packed edge array has phantom edge 1->0",
        ]

    def test_link_into_down_node(self):
        topology = self._geometric_line()
        topology.set_node_down(2)
        topology.recompute()
        self._plant(topology, add=[(1, 2)])
        assert self._topology_scan(topology) == [
            "link 1->2 leads to a down node",
            "packed edge array has phantom edge 1->2",
        ]

    def test_blocked_link_exposed(self):
        topology = self._geometric_line()
        topology.block_edge(0, 1)
        topology.recompute()
        self._plant(topology, add=[(0, 1)])
        assert self._topology_scan(topology) == [
            "blocked link 0->1 is exposed",
            "packed edge array has phantom edge 0->1",
        ]

    def test_topology_violations_follow_edge_order(self):
        # Per source ascending: its down-node message first, then per
        # neighbour ascending the down-target and blocked-link messages.
        topology = self._geometric_line()
        topology.set_node_down(1)
        topology.block_edge(3, 2)
        topology.recompute()
        self._plant(topology, add=[(0, 1), (1, 2), (1, 0), (3, 2)])
        assert self._topology_scan(topology) == [
            "link 0->1 leads to a down node",
            "down node 1 still has out-links",
            "blocked link 3->2 is exposed",
            "packed edge array has phantom edge 0->1",
            "packed edge array has phantom edge 1->0",
            "packed edge array has phantom edge 1->2",
            "packed edge array has phantom edge 3->2",
        ]

    def test_collect_mode_accumulates_across_checks(self, gateway_line4):
        world = self._world(gateway_line4)
        world.tables.table(2)._entries[0] = RouteEntry(
            gateway=0, next_hop=1, hops=0, installed_at=0
        )
        checker = InvariantChecker(world, raise_on_violation=False)
        checker.check_now(now=1)
        checker.check_now(now=2)
        assert checker.checks == 2
        assert len(checker.violations) == 2

    def test_install_is_idempotent(self, gateway_line4):
        world = self._world(gateway_line4)
        checker = InvariantChecker(world)
        checker.install()
        checker.install()
        world.engine.run(1)
        assert checker.checks == 1


def _scan_topology_by_rows(topology):
    """The per-node loop the vectorised topology scan must reproduce."""
    n = topology.node_count
    down = topology.down_ids
    blocked = topology.blocked_edges
    problems = []
    for node in range(n):
        packed = topology.packed_edges()
        neighbors = [e - node * n for e in packed.tolist() if e // n == node]
        if node in down and neighbors:
            problems.append(f"down node {node} still has out-links")
        for neighbor in neighbors:
            if neighbor in down:
                problems.append(f"link {node}->{neighbor} leads to a down node")
            if (node, neighbor) in blocked:
                problems.append(f"blocked link {node}->{neighbor} is exposed")
    return problems


@pytest.mark.parametrize("seed", range(6))
def test_topology_scan_matches_the_per_node_loop(seed):
    import random

    from repro.net.generator import GeneratorConfig, generate_manet_network

    topology = generate_manet_network(
        seed, GeneratorConfig(node_count=30, target_edges=None, gateway_count=2)
    )
    rng = random.Random(seed)
    n = topology.node_count
    edges = topology.edge_set()
    for node in rng.sample(range(n), 4):
        topology.set_node_down(node)
    for edge in rng.sample(sorted(edges), 6):
        topology.block_edge(*edge)
    topology.recompute()
    # Plant the faults back in: every down node and blocked link leaks.
    planted = set(topology.packed_edges().tolist())
    planted.update(u * n + v for u, v in rng.sample(sorted(edges), 40))
    topology._edges = np.array(sorted(planted), dtype=np.int64)
    checker = InvariantChecker(SimpleNamespace(topology=topology, agents=[]))
    problems = []
    checker._scan_topology(problems, set(range(n)), topology.down_ids)
    assert problems == _scan_topology_by_rows(topology)
    assert problems  # the planted edges do leak


class TestOracleReuse:
    """Reusing the reference sweep never delays a verdict.

    The consistency check re-runs the sweep only when the positions,
    ranges, down set or blocked set it reads from the nodes change; each
    case below warms that reuse on a static mapping network, breaks the
    structure one way, and expects the break in the very next check.
    """

    @staticmethod
    def _warm():
        from repro.net.generator import GeneratorConfig, generate_mapping_network

        topology = generate_mapping_network(
            7, GeneratorConfig(node_count=30, target_edges=90, gateway_count=2)
        )
        topology.adjacency_view()  # serve rows, so they are checked too
        assert topology.consistency_problems() == []
        run = topology._oracle_run
        assert topology.consistency_problems() == []
        assert topology._oracle_run is run  # static inputs: the sweep is reused
        return topology

    @staticmethod
    def _phantoms(topology, edges):
        """The messages for served ``edges`` the sweep no longer produces."""
        array = [f"packed edge array has phantom edge {u}->{v}" for u, v in sorted(edges)]
        rows = [f"row of node {u} has phantom edge {u}->{v}" for u, v in sorted(edges)]
        return array + rows

    def test_moved_node_without_invalidate(self):
        topology = self._warm()
        touching = [(u, v) for u, v in topology.edges() if 0 in (u, v)]
        assert touching
        node = topology.node(0)
        node.position = Point(node.position.x - 1e6, node.position.y)
        assert topology.consistency_problems() == self._phantoms(topology, touching)

    def test_phantom_edge_in_the_packed_array(self):
        topology = self._warm()
        run = topology._oracle_run
        u, v = next(
            (u, v)
            for u in topology.node_ids
            for v in topology.node_ids
            if u != v and not topology.has_edge(u, v)
        )
        TestPlantedViolations._plant(topology, add=[(u, v)])
        assert topology.consistency_problems() == [
            f"packed edge array has phantom edge {u}->{v}"
        ]
        assert topology._oracle_run is run

    def test_mutated_served_row(self):
        topology = self._warm()
        row = topology.adjacency_view()[4]
        dropped = row.pop(0)
        assert topology.consistency_problems() == [
            f"row of node 4 missing edge 4->{dropped}"
        ]

    def test_mutated_row_served_alone_is_flagged(self):
        topology = self._warm()
        topology.force_full_rebuild()  # a new epoch: no row served yet
        view = topology.adjacency_view()
        row = view[7]
        assert [u for u, __ in view.served()] == [7]  # the only row built
        row.append(row[0])
        assert topology.consistency_problems() == ["row of node 7 is not strictly ascending"]

    def test_node_down_behind_the_engine(self):
        topology = self._warm()
        touching = [(u, v) for u, v in topology.edges() if 3 in (u, v)]
        topology._down.add(3)  # no invalidate: positions and ranges unchanged
        assert topology.consistency_problems() == self._phantoms(topology, touching)

    def test_blocked_edge_behind_the_engine(self):
        topology = self._warm()
        u, v = next(topology.edges())
        topology._blocked.add((u, v))  # no invalidate
        assert topology.consistency_problems() == self._phantoms(topology, [(u, v)])

    def test_recovered_state_is_sound_again(self):
        topology = self._warm()
        topology.set_node_down(5)
        assert topology.consistency_problems() == []
        topology.set_node_up(5)
        assert topology.consistency_problems() == []
