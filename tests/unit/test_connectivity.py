"""Unit tests for the connectivity metric's validity walk."""

import pytest

from repro.net.manual import fixed_topology
from repro.routing.connectivity import (
    FunctionalConnectivity,
    connected_nodes,
    connectivity_fraction,
    walk_to_gateway,
)
from repro.routing.table import RouteEntry, TableBank


def install(bank, node, gateway, next_hop, hops=1, installed_at=1):
    bank.table(node).install(
        RouteEntry(gateway=gateway, next_hop=next_hop, hops=hops, installed_at=installed_at)
    )


def line_with_gateway():
    """0(gw) - 1 - 2 - 3 bidirectional."""
    edges = []
    for a, b in ((0, 1), (1, 2), (2, 3)):
        edges.extend([(a, b), (b, a)])
    return fixed_topology(4, edges, gateways=[0])


class TestWalk:
    def test_gateway_is_trivially_connected(self):
        topology = line_with_gateway()
        bank = TableBank(4)
        assert walk_to_gateway(0, topology, bank) == [0]

    def test_no_route_fails(self):
        topology = line_with_gateway()
        bank = TableBank(4)
        assert walk_to_gateway(3, topology, bank) is None

    def test_valid_chain(self):
        topology = line_with_gateway()
        bank = TableBank(4)
        install(bank, 3, gateway=0, next_hop=2, hops=3)
        install(bank, 2, gateway=0, next_hop=1, hops=2)
        install(bank, 1, gateway=0, next_hop=0, hops=1)
        assert walk_to_gateway(3, topology, bank) == [3, 2, 1, 0]

    def test_broken_link_invalidates_route(self):
        # Route points 1 -> 9... wait, point next hop at a non-neighbour.
        topology = line_with_gateway()
        bank = TableBank(4)
        install(bank, 3, gateway=0, next_hop=1)  # 1 is NOT a neighbour of 3
        assert walk_to_gateway(3, topology, bank) is None

    def test_cycle_detected(self):
        topology = line_with_gateway()
        bank = TableBank(4)
        install(bank, 2, gateway=0, next_hop=3)
        install(bank, 3, gateway=0, next_hop=2)
        assert walk_to_gateway(2, topology, bank) is None

    def test_ttl_exhaustion(self):
        topology = line_with_gateway()
        bank = TableBank(4)
        install(bank, 3, gateway=0, next_hop=2, hops=3)
        install(bank, 2, gateway=0, next_hop=1, hops=2)
        install(bank, 1, gateway=0, next_hop=0, hops=1)
        assert walk_to_gateway(3, topology, bank, walk_ttl=2) is None
        assert walk_to_gateway(3, topology, bank, walk_ttl=3) is not None

    def test_exact_ttl_path_reaches_gateway_on_last_hop(self):
        # The gateway test happens before each hop AND once after the
        # final hop, so a path of exactly walk_ttl hops must succeed.
        topology = line_with_gateway()
        bank = TableBank(4)
        install(bank, 3, gateway=0, next_hop=2, hops=3)
        install(bank, 2, gateway=0, next_hop=1, hops=2)
        install(bank, 1, gateway=0, next_hop=0, hops=1)
        assert walk_to_gateway(3, topology, bank, walk_ttl=3) == [3, 2, 1, 0]

    def test_dead_end_mid_path(self):
        # Node 2 routes into node 1, whose only entry points at a
        # non-neighbour: the walk strands there, not at the start.
        topology = line_with_gateway()
        bank = TableBank(4)
        install(bank, 2, gateway=0, next_hop=1, hops=2)
        install(bank, 1, gateway=0, next_hop=3, hops=1)  # 3 not adjacent to 1
        assert walk_to_gateway(2, topology, bank) is None

    def test_crashed_gateway_fails_walk(self):
        topology = line_with_gateway()
        bank = TableBank(4)
        install(bank, 1, gateway=0, next_hop=0, hops=1)
        assert walk_to_gateway(1, topology, bank) == [1, 0]
        topology.set_node_down(0)
        # The gateway died mid-run: its in-edges are gone and it no
        # longer counts as a live terminal.
        assert walk_to_gateway(1, topology, bank) is None
        assert connected_nodes(topology, bank) == set()

    def test_crashed_intermediate_node_breaks_chain(self):
        topology = line_with_gateway()
        bank = TableBank(4)
        install(bank, 3, gateway=0, next_hop=2, hops=3)
        install(bank, 2, gateway=0, next_hop=1, hops=2)
        install(bank, 1, gateway=0, next_hop=0, hops=1)
        topology.set_node_down(2)
        assert walk_to_gateway(3, topology, bank) is None
        assert walk_to_gateway(1, topology, bank) == [1, 0]

    def test_stale_entry_skipped_for_valid_one(self):
        topology = line_with_gateway()
        bank = TableBank(4)
        # Fresher entry points at a non-neighbour (link moved away);
        # the older entry still works and must be used.
        install(bank, 1, gateway=0, next_hop=3, installed_at=9)
        install(bank, 1, gateway=5, next_hop=0, installed_at=5)
        assert walk_to_gateway(1, topology, bank) == [1, 0]


class TestConnectedNodes:
    def test_gateways_always_counted(self):
        topology = line_with_gateway()
        bank = TableBank(4)
        assert connected_nodes(topology, bank) == {0}

    def test_path_members_counted(self):
        topology = line_with_gateway()
        bank = TableBank(4)
        install(bank, 3, gateway=0, next_hop=2, hops=3)
        install(bank, 2, gateway=0, next_hop=1, hops=2)
        install(bank, 1, gateway=0, next_hop=0, hops=1)
        assert connected_nodes(topology, bank) == {0, 1, 2, 3}

    def test_fraction(self):
        topology = line_with_gateway()
        bank = TableBank(4)
        install(bank, 1, gateway=0, next_hop=0, hops=1)
        assert connectivity_fraction(topology, bank) == 0.5

    def test_directed_link_respected(self):
        # 1 -> 0 exists but 0 -> 1 doesn't; a route from 0 via 1 is dead.
        topology = fixed_topology(2, [(1, 0)], gateways=[1])
        bank = TableBank(2)
        install(bank, 0, gateway=1, next_hop=1)
        assert walk_to_gateway(0, topology, bank) is None
        assert connectivity_fraction(topology, bank) == 0.5  # just the gateway


def _reroute_into_dead_end(topology, bank):
    # A fresher sighting at node 2 wins its table but points at 3, away
    # from the gateway: the chain breaks for 2 and 3.
    bank.table(2).install(
        RouteEntry(gateway=0, next_hop=3, hops=1, installed_at=9, gateway_seen_at=9)
    )


def _gateway_down(topology, bank):
    topology.set_node_down(0)


def _gateway_up(topology, bank):
    topology.set_node_up(0)


#: the changes per case, each followed by a ``connected()`` call, and the
#: connected set the last one leaves.  Tables are built with a TTL of 10
#: and installed at step 1 unless a change says otherwise.
CHANGES = {
    "nothing": ((lambda topology, bank: None,), {0, 1, 2, 3}),
    "hop_edge_blocked": ((lambda topology, bank: topology.block_edge(2, 1),), {0, 1}),
    "route_rerouted": ((_reroute_into_dead_end,), {0, 1}),
    "same_route_reinstalled": (
        (lambda topology, bank: install(bank, 2, gateway=0, next_hop=1, hops=2, installed_at=8),),
        {0, 1, 2, 3},
    ),
    "gateway_crashed": ((_gateway_down,), set()),
    "gateway_recovered": ((_gateway_down, _gateway_up), {0, 1, 2, 3}),
    "routes_expired": ((lambda topology, bank: bank.expire_all(11),), {0}),
    "next_hop_dropped": (
        (lambda topology, bank: bank.table(2).drop_routes_via_next_hop(1),),
        {0, 1},
    ),
    "full_rebuild": ((lambda topology, bank: topology.force_full_rebuild(),), None),
}


class TestFunctionalConnectivity:
    """The per-step derived metric against the :func:`connected_nodes` oracle."""

    def test_builds_no_table_and_reads_only_routed_rows(self):
        topology = line_with_gateway()
        bank = TableBank(4)
        install(bank, 2, gateway=0, next_hop=1, hops=2)
        install(bank, 1, gateway=0, next_hop=0, hops=1)
        functional = FunctionalConnectivity(topology, bank)
        assert functional.connected() == {0, 1, 2}
        assert sorted(bank._tables) == [1, 2]
        assert [u for u, __ in topology.adjacency_view().served()] == [1, 2]
        assert connected_nodes(topology, bank) == {0, 1, 2}
        assert sorted(bank._tables) == [1, 2]

    @pytest.mark.parametrize("change", sorted(CHANGES))
    def test_matches_connected_nodes_after(self, change):
        topology = line_with_gateway()
        bank = TableBank(4, ttl=10)
        install(bank, 3, gateway=0, next_hop=2, hops=3)
        install(bank, 2, gateway=0, next_hop=1, hops=2)
        install(bank, 1, gateway=0, next_hop=0, hops=1)
        functional = FunctionalConnectivity(topology, bank)
        assert functional.connected() == {0, 1, 2, 3}
        steps, expected = CHANGES[change]
        for apply in steps:
            apply(topology, bank)
            result = functional.connected()
            assert result == connected_nodes(topology, bank)
        if expected is not None:
            assert result == expected
