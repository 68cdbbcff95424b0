"""Unit tests for routing tables."""

import pytest

from repro.errors import RoutingError
from repro.routing.table import RouteEntry, RoutingTable, TableBank, TableGuard


def entry(gateway=9, next_hop=1, hops=3, installed_at=10, seen_at=0, sequence=0):
    return RouteEntry(
        gateway=gateway,
        next_hop=next_hop,
        hops=hops,
        installed_at=installed_at,
        gateway_seen_at=seen_at,
        sequence=sequence,
    )


class TestRouteEntry:
    def test_newer_gateway_sighting_wins(self):
        assert entry(seen_at=9, hops=8).fresher_than(entry(seen_at=5, hops=1))

    def test_fewer_hops_breaks_sighting_tie(self):
        assert entry(seen_at=5, hops=2).fresher_than(entry(seen_at=5, hops=5))
        assert not entry(seen_at=5, hops=5).fresher_than(entry(seen_at=5, hops=2))

    def test_newer_install_breaks_full_tie(self):
        assert entry(installed_at=11).fresher_than(entry(installed_at=10))

    def test_long_stale_route_cannot_displace_short_fresh_one(self):
        # The fig9-inverting case: an agent with a big history carries a
        # long track whose gateway sighting is old; installing it later
        # must NOT displace a short route with a fresher sighting.
        short_fresh = entry(hops=2, seen_at=40, installed_at=41)
        long_stale = entry(hops=19, seen_at=25, installed_at=44)
        assert not long_stale.fresher_than(short_fresh)


class TestRoutingTable:
    def test_ttl_validation(self):
        with pytest.raises(RoutingError):
            RoutingTable(ttl=0)

    def test_install_new(self):
        table = RoutingTable()
        assert table.install(entry())
        assert len(table) == 1
        assert table.entry_for(9) == entry()

    def test_install_rejects_zero_hops(self):
        with pytest.raises(RoutingError):
            RoutingTable().install(entry(hops=0))

    def test_fresher_replaces(self):
        table = RoutingTable()
        table.install(entry(seen_at=10, next_hop=1))
        assert table.install(entry(seen_at=11, next_hop=2))
        assert table.entry_for(9).next_hop == 2

    def test_staler_rejected(self):
        table = RoutingTable()
        table.install(entry(seen_at=10))
        assert not table.install(entry(seen_at=9, hops=1))
        assert table.entry_for(9).gateway_seen_at == 10

    def test_one_entry_per_gateway(self):
        table = RoutingTable()
        table.install(entry(gateway=8))
        table.install(entry(gateway=9))
        assert len(table) == 2

    def test_expire(self):
        table = RoutingTable(ttl=5)
        table.install(entry(installed_at=10))
        assert table.expire(now=14) == 0
        assert table.expire(now=16) == 1
        assert len(table) == 0

    def test_expire_exact_boundary(self):
        # An entry installed at t survives t .. t+ttl-1 and is dropped
        # by expire(t+ttl) exactly — the old `<` comparison let it live
        # one extra step.
        table = RoutingTable(ttl=5)
        table.install(entry(installed_at=10))
        assert table.expire(now=14) == 0
        assert len(table) == 1
        assert table.expire(now=15) == 1
        assert len(table) == 0

    def test_ranking_memoized_until_change(self):
        table = RoutingTable()
        table.install(entry(gateway=8, seen_at=5))
        table.install(entry(gateway=9, seen_at=9))
        first = table.entries_by_preference()
        assert table.entries_by_preference() is first  # cached object
        table.install(entry(gateway=7, seen_at=7))
        second = table.entries_by_preference()
        assert second is not first
        assert [e.gateway for e in second] == [9, 7, 8]

    def test_no_ttl_never_expires(self):
        table = RoutingTable(ttl=None)
        table.install(entry(installed_at=0))
        assert table.expire(now=10**6) == 0

    def test_preference_order(self):
        table = RoutingTable()
        table.install(entry(gateway=7, seen_at=5, hops=2))
        table.install(entry(gateway=8, seen_at=9, hops=6))
        table.install(entry(gateway=9, seen_at=9, hops=1))
        preferred = table.entries_by_preference()
        assert [e.gateway for e in preferred] == [9, 8, 7]

    def test_clear(self):
        table = RoutingTable()
        table.install(entry())
        table.clear()
        assert len(table) == 0


class TestSequenceFloors:
    def test_accepting_an_entry_raises_the_floor(self):
        table = RoutingTable()
        assert table.sequence_floor(9) == 0
        table.install(entry(sequence=7))
        assert table.sequence_floor(9) == 7

    def test_floors_are_per_gateway(self):
        table = RoutingTable()
        table.install(entry(gateway=8, sequence=7))
        assert table.sequence_floor(8) == 7
        assert table.sequence_floor(9) == 0

    def test_below_floor_rejected_even_into_empty_slot(self):
        # The late-carrier case staleness control exists for: the slot
        # emptied (TTL expiry), then an agent carrying *older* gateway
        # information arrives.  Without the floor it would reinstall.
        table = RoutingTable(ttl=5)
        table.install(entry(seen_at=10, sequence=10, installed_at=10))
        assert table.expire(now=20) == 1
        assert len(table) == 0
        assert not table.install(entry(seen_at=4, sequence=4, installed_at=21))
        assert len(table) == 0

    def test_at_or_above_floor_accepted_after_expiry(self):
        table = RoutingTable(ttl=5)
        table.install(entry(seen_at=10, sequence=10, installed_at=10))
        table.expire(now=20)
        assert table.install(entry(seen_at=10, sequence=10, installed_at=21))
        assert table.install(entry(seen_at=12, sequence=12, installed_at=22))

    def test_clear_forgets_floors(self):
        # A crashed node's reborn table has no memory of what it saw.
        table = RoutingTable()
        table.install(entry(sequence=10))
        table.clear()
        assert table.sequence_floor(9) == 0
        assert table.install(entry(sequence=1))

    def test_drop_routes_via_next_hop_keeps_gateway_entries(self):
        table = RoutingTable()
        table.install(entry(gateway=8, next_hop=3))
        table.install(entry(gateway=9, next_hop=5))
        table.install(entry(gateway=3, next_hop=4))
        assert table.drop_routes_via_next_hop(3) == 1
        # gateway=3 survives: a dead *link* toward 3 says nothing about
        # reaching gateway 3 some other way.
        assert table.entry_for(3) is not None
        assert table.entry_for(8) is None
        assert table.entry_for(9) is not None

    def test_drop_routes_via_next_hop_keeps_floor(self):
        table = RoutingTable()
        table.install(entry(next_hop=3, sequence=10))
        table.drop_routes_via_next_hop(3)
        assert table.sequence_floor(9) == 10
        assert not table.install(entry(next_hop=5, sequence=9))

    def test_corrupt_preserves_sequence(self, rng):
        table = RoutingTable()
        table.install(entry(sequence=6))
        table.corrupt(rng, node_ids=[0, 1, 2])
        assert table.entry_for(9).sequence == 6


class TestTableBank:
    def test_validation(self):
        with pytest.raises(RoutingError):
            TableBank(0)

    def test_per_node_tables(self):
        bank = TableBank(3)
        bank.table(0).install(entry())
        assert len(bank.table(0)) == 1
        assert len(bank.table(1)) == 0

    def test_unknown_node(self):
        with pytest.raises(RoutingError):
            TableBank(3).table(5)

    @pytest.mark.parametrize("node", [-1, -3, 3])
    def test_ids_outside_the_network_raise(self, node):
        bank = TableBank(3)
        bank.table(2).install(entry())
        with pytest.raises(RoutingError):
            bank.table(node)

    def test_tables_are_built_on_first_use(self):
        bank = TableBank(5)
        assert bank.get(3) is None
        assert bank.hops_by_preference(3) == ()
        assert bank.total_entries() == 0 and bank.total_guard_rejections() == 0
        assert bank._tables == {}  # the reads above built nothing
        table = bank.table(3)
        assert bank.get(3) is table and bank.table(3) is table
        table.install(entry(next_hop=4))
        assert bank.hops_by_preference(3) == (4,)
        assert list(bank._tables) == [3]

    def test_expire_all(self):
        bank = TableBank(2, ttl=5)
        bank.table(0).install(entry(installed_at=0))
        bank.table(1).install(entry(installed_at=8))
        assert bank.expire_all(now=10) == 1
        assert bank.total_entries() == 1


class TestTableGuard:
    def guarded(self, **overrides):
        return RoutingTable(guard=TableGuard(**overrides))

    def test_validation(self):
        with pytest.raises(RoutingError):
            TableGuard(max_hop_improvement=0)
        with pytest.raises(RoutingError):
            TableGuard(max_sequence_ahead=-1)

    def test_honest_install_accepted(self):
        table = self.guarded()
        # Sequence (the gateway sighting) in the past relative to the
        # install: exactly what honest agent visits produce.
        assert table.install(entry(installed_at=10, seen_at=8, sequence=8))
        assert table.guard_rejections == 0

    def test_future_stamped_sequence_rejected(self):
        table = self.guarded()
        forged = entry(installed_at=10, sequence=11)
        assert not table.install(forged)
        assert table.entry_for(9) is None
        assert table.guard_rejections == 1

    def test_sequence_ahead_bound_is_inclusive(self):
        table = self.guarded(max_sequence_ahead=5)
        assert table.install(entry(installed_at=10, sequence=15))
        assert not table.install(entry(installed_at=10, sequence=16, hops=1))
        assert table.guard_rejections == 1

    def test_implausible_hop_improvement_rejected(self):
        table = self.guarded(max_hop_improvement=2)
        table.install(entry(hops=9, seen_at=5, sequence=5, installed_at=6))
        forged = entry(hops=1, seen_at=6, sequence=6, installed_at=7)
        assert not table.install(forged)
        assert table.entry_for(9).hops == 9
        assert table.guard_rejections == 1

    def test_gradual_improvement_accepted(self):
        table = self.guarded(max_hop_improvement=2)
        table.install(entry(hops=9, seen_at=5, sequence=5, installed_at=6))
        assert table.install(entry(hops=7, seen_at=6, sequence=6, installed_at=7))
        assert table.entry_for(9).hops == 7
        assert table.guard_rejections == 0

    def test_hop_rule_needs_an_incumbent(self):
        # A 1-hop route into an empty slot is fine: the hop rule bounds
        # improvement over what the node already believes, not absolutes.
        table = self.guarded(max_hop_improvement=1)
        assert table.install(entry(hops=1, installed_at=10, seen_at=9, sequence=9))

    def test_rejections_survive_clear(self):
        table = self.guarded()
        table.install(entry(installed_at=10, sequence=11))
        table.clear()
        table.install(entry(installed_at=12, sequence=20))
        # Conservation against the world's overhead counters depends on
        # the counter never resetting with the table.
        assert table.guard_rejections == 2

    def test_unguarded_table_installs_forged_writes(self):
        table = RoutingTable()
        assert table.install(entry(installed_at=10, sequence=11))
        assert table.guard_rejections == 0

    def test_bank_threads_guard_to_every_table(self):
        bank = TableBank(3, guard=TableGuard())
        forged = entry(installed_at=10, sequence=11)
        for node in range(3):
            assert not bank.table(node).install(forged)
        assert bank.total_guard_rejections() == 3

    def test_bank_without_guard_counts_zero(self):
        bank = TableBank(2)
        bank.table(0).install(entry(installed_at=10, sequence=11))
        assert bank.total_guard_rejections() == 0
