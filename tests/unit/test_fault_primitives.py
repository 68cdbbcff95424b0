"""Unit tests for the graceful-degradation primitives faults rely on."""

import random

import pytest

from repro.core.pheromone import PheromoneField
from repro.core.stigmergy import StigmergyField
from repro.errors import ConfigurationError, TopologyError
from repro.net.battery import Battery, NoDrain
from repro.routing.connectivity import connected_nodes, walk_to_gateway
from repro.routing.table import RouteEntry, TableBank


class TestTopologyFaultState:
    def test_down_node_loses_all_links(self, ring6):
        assert ring6.set_node_down(2) is True
        assert ring6.is_down(2)
        assert 2 in ring6.down_ids
        assert ring6.out_neighbors(2) == []
        assert all(2 not in ring6.out_neighbors(n) for n in ring6.node_ids)

    def test_down_then_up_restores_links(self, ring6):
        before = {n: ring6.out_neighbors(n) for n in ring6.node_ids}
        ring6.set_node_down(2)
        assert ring6.set_node_up(2) is True
        assert {n: ring6.out_neighbors(n) for n in ring6.node_ids} == before

    def test_down_and_up_are_idempotent(self, ring6):
        ring6.set_node_down(2)
        assert ring6.set_node_down(2) is False
        ring6.set_node_up(2)
        assert ring6.set_node_up(2) is False

    def test_blocked_edge_is_directed(self, ring6):
        ring6.block_edge(0, 1)
        assert 1 not in ring6.out_neighbors(0)
        assert 0 in ring6.out_neighbors(1)
        ring6.unblock_edge(0, 1)
        assert 1 in ring6.out_neighbors(0)

    def test_unknown_ids_rejected(self, ring6):
        with pytest.raises(TopologyError):
            ring6.set_node_down(99)
        with pytest.raises(TopologyError):
            ring6.block_edge(0, 99)

    def test_down_gateway_leaves_gateway_ids(self, gateway_line4):
        assert gateway_line4.gateway_ids == [0]
        gateway_line4.set_node_down(0)
        assert gateway_line4.gateway_ids == []
        assert gateway_line4.all_gateway_ids == [0]
        gateway_line4.set_node_up(0)
        assert gateway_line4.gateway_ids == [0]


class TestConnectivityWithFaults:
    def test_down_gateway_terminates_nothing(self, gateway_line4):
        tables = TableBank(4)
        tables.table(1).install(
            RouteEntry(gateway=0, next_hop=0, hops=1, installed_at=1)
        )
        assert walk_to_gateway(1, gateway_line4, tables, walk_ttl=8) == [1, 0]
        gateway_line4.set_node_down(0)
        assert walk_to_gateway(1, gateway_line4, tables, walk_ttl=8) is None

    def test_down_nodes_not_counted_connected(self, gateway_line4):
        tables = TableBank(4)
        gateway_line4.set_node_down(3)
        assert 3 not in connected_nodes(gateway_line4, tables, walk_ttl=8)


class TestTableInvalidation:
    def _bank(self):
        bank = TableBank(4)
        bank.table(1).install(RouteEntry(gateway=0, next_hop=2, hops=2, installed_at=1))
        bank.table(2).install(RouteEntry(gateway=0, next_hop=0, hops=1, installed_at=1))
        bank.table(3).install(RouteEntry(gateway=0, next_hop=1, hops=3, installed_at=1))
        return bank

    def test_drop_routes_via_next_hop_and_gateway(self):
        bank = self._bank()
        # Node 2 dies: 1's route goes through it; 2's own table is wiped.
        assert bank.invalidate_node(2) == 2
        assert len(bank.table(1)) == 0
        assert len(bank.table(2)) == 0
        assert len(bank.table(3)) == 1

    def test_dead_gateway_invalidates_every_route_toward_it(self):
        bank = self._bank()
        assert bank.invalidate_node(0) == 3
        assert bank.total_entries() == 0

    def test_corrupt_is_deterministic_per_seed(self):
        hops_before = []
        corrupted = []
        for __ in range(2):
            bank = self._bank()
            bank.table(1).corrupt(random.Random(42), [0, 1, 2, 3])
            entry = bank.table(1).entry_for(0)
            corrupted.append(entry.next_hop)
            hops_before.append(entry.hops)
        assert corrupted[0] == corrupted[1]
        assert hops_before[0] == hops_before[1]


class TestSubstrateClearing:
    def test_stigmergy_clear_board(self):
        field = StigmergyField(capacity=4, freshness=None)
        field.stamp(5, agent=1, target=6, time=3)
        field.stamp(5, agent=2, target=7, time=3)
        assert field.clear_board(5) == 2
        assert field.total_marks() == 0
        assert field.clear_board(5) == 0

    def test_pheromone_clear_node_removes_inbound_trails(self):
        field = PheromoneField(evaporation=0.0)
        field.deposit(1, toward=2, amount=1.0)
        field.deposit(3, toward=2, amount=1.0)
        field.deposit(3, toward=4, amount=1.0)
        removed = field.clear_node(2)
        assert removed == 2
        assert field.strength(3, 2) == pytest.approx(field.initial)
        assert field.strength(3, 4) > field.initial


class TestBatteryShock:
    def test_shock_drains_and_floors_at_zero(self):
        battery = Battery(NoDrain(), level=0.6)
        assert battery.shock(0.5) == pytest.approx(0.1)
        assert battery.shock(0.5) == 0.0
        assert battery.depleted

    def test_shock_amount_validated(self):
        battery = Battery(NoDrain())
        with pytest.raises(ConfigurationError):
            battery.shock(0.0)
        with pytest.raises(ConfigurationError):
            battery.shock(1.5)
