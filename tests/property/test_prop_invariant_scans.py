"""Property tests: the checker's set tests agree with its ordered walks.

The routing-table and footprint scans first ask "is anything broken?"
with set and min expressions, and walk the tables and boards in node
order only when the answer is yes.  On random contents with planted
violations, the set test must be true exactly when the walk reports
something, and a full scan must report exactly the walk's messages.
"""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stigmergy import StigmergyField
from repro.net.manual import fixed_topology
from repro.routing.table import RouteEntry, TableBank
from repro.sim.invariants import (
    InvariantChecker,
    _footprint_problems,
    _footprints_violated,
    _table_problems,
    _tables_violated,
)


@st.composite
def worlds(draw):
    """A ring topology with down nodes, a table bank and a footprint field.

    Ids are mostly valid, with unknown ids (negative or past the last
    node) mixed in; hop counts include 0 and -1, and installation times
    reach back past the TTL horizon.
    """
    n = draw(st.integers(min_value=2, max_value=10))
    valid = st.integers(min_value=0, max_value=n - 1)
    some_id = st.one_of(valid, valid, valid, st.sampled_from([-1, n, n + 7]))
    now = draw(st.integers(min_value=0, max_value=40))
    ttl = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=30)))
    down = draw(st.sets(valid, max_size=n // 2))

    edges = [(u, (u + 1) % n) for u in range(n)] + [((u + 1) % n, u) for u in range(n)]
    topology = fixed_topology(n, sorted(set(edges)))
    for node in sorted(down):
        topology.set_node_down(node)

    tables = TableBank(n, ttl=ttl)
    entries = draw(
        st.lists(
            st.tuples(
                valid,
                some_id,
                some_id,
                st.one_of(st.integers(min_value=1, max_value=6), st.sampled_from([0, -1])),
                st.integers(min_value=0, max_value=now),
            ),
            max_size=25,
        )
    )
    for node, gateway, next_hop, hops, installed_at in entries:
        # Written behind install()'s back, which would refuse hops < 1.
        tables.table(node)._entries[gateway] = RouteEntry(
            gateway=gateway, next_hop=next_hop, hops=hops, installed_at=installed_at
        )

    field = StigmergyField(capacity=4)
    marks = draw(
        st.lists(
            st.tuples(
                some_id,
                st.integers(min_value=0, max_value=5),
                some_id,
                st.integers(min_value=0, max_value=now),
            ),
            max_size=20,
        )
    )
    for node, agent, target, time in marks:
        field.stamp(node, agent, target, time)
    for node in draw(st.lists(some_id, max_size=3)):
        field.board(node)  # an instantiated, empty board
    return SimpleNamespace(topology=topology, tables=tables, field=field, agents=[]), now


class TestSetTestsMatchWalks:
    @given(worlds())
    @settings(max_examples=150, deadline=None)
    def test_set_tests_are_true_exactly_when_the_walks_report(self, drawn):
        world, now = drawn
        ids = frozenset(world.topology.node_ids)
        down = world.topology.down_ids
        tables = _table_problems(world.tables, now, ids, down)
        assert _tables_violated(world.tables, now, ids, down) == bool(tables)
        footprints = _footprint_problems(world.field, ids, down)
        assert _footprints_violated(world.field, ids, down) == bool(footprints)

    @given(worlds())
    @settings(max_examples=60, deadline=None)
    def test_scan_returns_the_walks_messages(self, drawn):
        world, now = drawn
        ids = frozenset(world.topology.node_ids)
        down = world.topology.down_ids
        expected = _table_problems(world.tables, now, ids, down)
        expected += _footprint_problems(world.field, ids, down)
        assert InvariantChecker(world).scan(now) == expected
