"""Property tests: incremental topology and connectivity equivalence.

The link kernel refresh's contract is bit-identity with the reference
sweep (:meth:`Topology.force_full_rebuild`) — under mobility, crashes,
recoveries, link blackouts and radio degradation, under both
evaluations of the link kernel (the dense all-pairs block and the
sorted column grid).  These tests drive randomized traces and compare
graphs (and the functional connectivity result) step by step, and
check the kernel and the sweep oracle against the brute-force
predicate.
"""

import contextlib
import math
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.net.topology as topology_module
from repro.faults.plan import FaultPlan
from repro.net.channel import ChannelConfig
from repro.net.generator import GeneratorConfig, generate_manet_network
from repro.net.geometry import Arena, Point
from repro.net.node import Node
from repro.net.radio import HeterogeneousRange
from repro.net.topology import Topology, edge_delta, link_edges
from repro.routing.connectivity import (
    FunctionalConnectivity,
    connected_nodes,
    connectivity_fraction,
)
from repro.routing.table import RouteEntry, TableBank
from repro.routing.world import RoutingWorld, RoutingWorldConfig

NODES = 24
GATEWAYS = 3

CONFIG = GeneratorConfig(
    node_count=NODES,
    target_edges=None,
    range_heterogeneity=0.25,
    require_strong_connectivity=False,
    gateway_count=GATEWAYS,
    mobile_fraction=0.5,
)


@contextlib.contextmanager
def evaluation(dense):
    """Force the link kernel's dense (or column-grid) evaluation."""
    saved = topology_module._DENSE_MAX_PAIRS
    topology_module._DENSE_MAX_PAIRS = (1 << 62) if dense else 0
    try:
        yield
    finally:
        topology_module._DENSE_MAX_PAIRS = saved


def build(seed):
    return generate_manet_network(seed, CONFIG)


def assert_csr_rows(topology):
    """Every served row is exactly the packed array's CSR row, ascending."""
    packed = topology.packed_edges()
    n = topology.node_count
    rows = np.searchsorted(packed, np.arange(n + 1) * n)
    for node in topology.node_ids:
        row = packed[rows[node] : rows[node + 1]] - node * n
        assert row.tolist() == topology.out_neighbors(node)


def brute_force_edges(x, y, r, senders, receivers):
    """The serial predicate pair by pair, in Python floats."""
    n = len(x)
    edges = []
    for u in senders:
        radius = r[u]
        if radius <= 0.0:
            continue
        for v in receivers:
            dx = x[u] - x[v]
            dy = y[u] - y[v]
            if u != v and dx * dx + dy * dy <= radius * radius:
                edges.append(u * n + v)
    return sorted(edges)


def random_fault_ops(rng, step):
    """A small random batch of fault transitions for one step."""
    ops = []
    for __ in range(rng.randrange(3)):
        kind = rng.randrange(4)
        node = rng.randrange(NODES)
        other = rng.randrange(NODES)
        if kind == 0:
            ops.append(("down", node))
        elif kind == 1:
            ops.append(("up", node))
        elif kind == 2 and node != other:
            ops.append(("block", node, other))
        elif kind == 3 and node != other:
            ops.append(("unblock", node, other))
    return ops


def apply_ops(topology, ops):
    for op in ops:
        if op[0] == "down":
            topology.set_node_down(op[1])
        elif op[0] == "up":
            topology.set_node_up(op[1])
        elif op[0] == "block":
            topology.block_edge(op[1], op[2])
        elif op[0] == "unblock":
            topology.unblock_edge(op[1], op[2])


class TestIncrementalEquivalence:
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
        st.booleans(),
    )
    @settings(max_examples=20, deadline=None)
    def test_matches_naive_under_mobility_and_faults(self, seed, ops_seed, dense):
        incremental = build(seed)
        naive = build(seed)
        rng = random.Random(ops_seed)
        with evaluation(dense):
            for step in range(12):
                ops = random_fault_ops(rng, step)
                for topology in (incremental, naive):
                    topology.advance()
                    apply_ops(topology, ops)
                incremental.recompute()
                naive.force_full_rebuild()
                assert incremental.edge_set() == naive.edge_set()
                assert incremental.down_ids == naive.down_ids
                assert incremental.consistency_problems() == []
                assert_csr_rows(incremental)

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.9]), min_size=4, max_size=10),
        st.booleans(),
    )
    @settings(max_examples=15, deadline=None)
    def test_matches_naive_under_degrade_and_restore(self, seed, fractions, dense):
        # Degradation replaces the fraction, so a later smaller fraction
        # grows ranges back: the refresh must follow them up as well.
        incremental = build(seed)
        naive = build(seed)
        degradable = [
            node.node_id
            for node in incremental.nodes
            if isinstance(node.radio, HeterogeneousRange)
        ]
        rng = random.Random(seed)
        with evaluation(dense):
            for fraction in fractions:
                chosen = rng.sample(degradable, k=min(5, len(degradable)))
                for topology in (incremental, naive):
                    topology.advance()
                    for node_id in chosen:
                        topology.node(node_id).radio.degrade(fraction)
                    topology.invalidate()
                incremental.recompute()
                naive.force_full_rebuild()
                assert incremental.edge_set() == naive.edge_set()
                assert incremental.consistency_problems() == []
                assert_csr_rows(incremental)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_vector_and_grid_paths_agree(self, seed):
        vector = build(seed)
        grid = build(seed)
        for __ in range(10):
            for topology, dense in ((vector, True), (grid, False)):
                with evaluation(dense):
                    topology.advance()
                    topology.recompute()
            assert vector.edge_set() == grid.edge_set()
            assert np.array_equal(vector.packed_edges(), grid.packed_edges())


class TestLinkKernel:
    """Both kernel evaluations against the brute-force predicate."""

    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=10_000),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_evaluations_match_brute_force(self, n, seed, dense):
        rng = random.Random(seed)
        extent = rng.choice([1.0, 50.0, 300.0])
        # Coarse coordinates make coincident nodes and exact-range pairs
        # common; some radios are off (range 0), some reach far, and some
        # are vanishingly small next to the arena.
        x = [rng.randrange(8) * extent / 7 for __ in range(n)]
        y = [rng.randrange(8) * extent / 7 for __ in range(n)]
        reaches = [0.0, extent * 1e-18, extent / 7, extent / 3]
        r = [rng.choice(reaches + [extent * rng.random()]) for __ in range(n)]
        senders = sorted(rng.sample(range(n), k=rng.randint(0, n)))
        receivers = sorted(rng.sample(range(n), k=rng.randint(0, n)))
        expected = brute_force_edges(x, y, r, senders, receivers)
        with evaluation(dense):
            edges = link_edges(
                np.array(x),
                np.array(y),
                np.array(r),
                np.array(senders, dtype=np.int64),
                np.array(receivers, dtype=np.int64),
            )
        assert edges.dtype == np.int64
        assert edges.tolist() == expected

    @given(
        st.sets(st.integers(min_value=0, max_value=400)),
        st.sets(st.integers(min_value=0, max_value=400)),
    )
    def test_edge_delta_is_the_sorted_set_difference(self, new, old):
        added, removed = edge_delta(
            np.array(sorted(new), dtype=np.int64), np.array(sorted(old), dtype=np.int64)
        )
        assert added.tolist() == sorted(new - old)
        assert removed.tolist() == sorted(old - new)


class _Radio:
    """A radio of any range, zero included."""

    def __init__(self, value):
        self.value = value

    def current_range(self):
        return self.value


class TestReferenceSweep:
    """The rebuild's sorted-x sweep oracle against the brute-force predicate."""

    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_sweep_matches_brute_force(self, n, seed):
        rng = random.Random(seed)
        extent = rng.choice([1.0, 50.0, 300.0, 1e6])
        # Coarse coordinates tie many x values and make exact-range pairs
        # common; some radios are off (range 0), some reach across the
        # arena, some are vanishingly small next to it.
        x = [rng.randrange(8) * extent / 7 for __ in range(n)]
        y = [rng.randrange(8) * extent / 7 for __ in range(n)]
        reaches = [0.0, extent * 1e-18, extent / 7, extent / 3, 2 * extent]
        r = [rng.choice(reaches + [extent * rng.random()]) for __ in range(n)]
        if n >= 2:
            # Boundary pairs on a horizontal line: |dx| at the sender's
            # range and one ulp either side of it.
            base = rng.choice([0.0, extent * rng.random()])
            y[1] = y[0]
            x[0] = base
            x[1] = base + rng.choice(
                [r[0], math.nextafter(r[0], math.inf), math.nextafter(r[0], 0.0)]
            )
            if rng.random() < 0.5:
                x[0], x[1] = x[1], x[0]
        nodes = [Node(i, Point(x[i], y[i]), _Radio(r[i])) for i in range(n)]
        topology = Topology(nodes, Arena(2 * extent, 2 * extent))
        for node in rng.sample(range(n), k=rng.randint(0, n // 3)):
            topology.set_node_down(node)
        for __ in range(rng.randrange(6)):
            source, destination = rng.randrange(n), rng.randrange(n)
            if source != destination:
                topology.block_edge(source, destination)
        live = [u for u in range(n) if not topology.is_down(u)]
        blocked = {u * n + v for u, v in topology.blocked_edges}
        expected = [
            edge
            for edge in brute_force_edges(x, y, r, live, live)
            if edge not in blocked
        ]
        edges = topology._compute_adjacency()
        assert edges.dtype == np.int64
        assert edges.tolist() == expected


class TestBatchCandidateRows:
    @given(st.integers(min_value=0, max_value=10_000), st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_candidate_rows_are_sorted_out_neighbors(self, seed, dense):
        world = RoutingWorld(
            generate_manet_network(seed, CONFIG),
            RoutingWorldConfig(
                population=8, total_steps=10_000, converged_after=0, batch_agents=True
            ),
            seed,
        )
        engine = world._batch
        acts = np.arange(len(world.agents), dtype=np.int64)
        with evaluation(dense):
            for __ in range(6):
                world.engine.step()
                cand, deg, valid = engine._candidate_matrix(acts)
                topology = world.topology
                for row, location in enumerate(engine.loc.tolist()):
                    want = topology.out_neighbors(location)
                    got = cand[row, : deg[row]].tolist() if cand is not None else []
                    assert got == want
                    if cand is not None:
                        assert valid[row].sum() == len(want)


class TestFunctionalConnectivityEquivalence:
    """The eff-chase evaluator must match the exact per-node walks."""

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
        st.booleans(),
    )
    @settings(max_examples=15, deadline=None)
    def test_matches_naive_walks_under_churn(self, seed, ops_seed, dense):
        topology = build(seed)
        bank = TableBank(NODES)
        functional = FunctionalConnectivity(topology, bank, walk_ttl=16)
        gateways = topology.all_gateway_ids
        rng = random.Random(ops_seed)
        with evaluation(dense):
            for step in range(12):
                topology.advance()
                apply_ops(topology, random_fault_ops(rng, step))
                for __ in range(rng.randrange(4)):
                    node = rng.randrange(NODES)
                    bank.table(node).install(
                        RouteEntry(
                            gateway=rng.choice(gateways),
                            next_hop=rng.randrange(NODES),
                            hops=1 + rng.randrange(4),
                            installed_at=step,
                            gateway_seen_at=step,
                        )
                    )
                assert functional.connected() == connected_nodes(
                    topology, bank, walk_ttl=16
                )

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_routing_loops_fall_back_to_exact_walks(self, seed):
        """Two-node next-hop cycles taint the eff chain; the exact-walk
        fallback (where the visited-set filter can re-route the walk)
        must still match the naive evaluation."""
        topology = build(seed)
        bank = TableBank(NODES)
        functional = FunctionalConnectivity(topology, bank, walk_ttl=16)
        gateways = topology.all_gateway_ids
        rng = random.Random(seed)
        for step in range(8):
            topology.advance()
            # Deliberately install looping route pairs (a -> b, b -> a)
            # plus a second preference so the filtered walk can escape.
            for __ in range(2):
                a = rng.randrange(NODES)
                b = rng.randrange(NODES)
                if a == b:
                    continue
                for u, v in ((a, b), (b, a)):
                    bank.table(u).install(
                        RouteEntry(
                            gateway=rng.choice(gateways),
                            next_hop=v,
                            hops=1 + rng.randrange(3),
                            installed_at=step,
                            gateway_seen_at=step,
                        )
                    )
            assert functional.connected() == connected_nodes(
                topology, bank, walk_ttl=16
            )


class TestWorldMetricMatchesOracle:
    """Every step's recorded metric equals the validity-walk oracle."""

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.booleans(),
        st.sampled_from([4, 16]),
    )
    @settings(max_examples=12, deadline=None)
    def test_recorded_fraction_is_the_oracle_fraction(self, seed, batch, walk_ttl):
        a, b = seed % NODES, (seed + 5) % NODES
        plan = (
            FaultPlan()
            .with_policy("respawn")
            .crash(4, a)
            .blackout(6, b, (b + 1) % NODES)
            .battery_shock(9, (seed + 11) % NODES, 0.5)
            .recover(12, a)
            .restore(16, b, (b + 1) % NODES)
            .wipe_table(18, (seed + 7) % NODES)
        )
        steps = 24
        world = RoutingWorld(
            build(seed),
            RoutingWorldConfig(
                population=10,
                visiting=True,
                total_steps=steps,
                converged_after=steps // 2,
                walk_ttl=walk_ttl,
                fault_plan=plan,
                # The batch engine models lossless hops only; the lossy
                # channel stays on the per-object step.
                channel=None if batch else ChannelConfig(
                    loss=0.25, hop_retries=2, backoff_base=1, backoff_cap=4
                ),
                batch_agents=batch,
            ),
            seed + 1,
        )
        recorded = []

        def check(time, fraction):
            oracle = connectivity_fraction(world.topology, world.tables, walk_ttl)
            recorded.append((time, fraction, oracle))

        world.engine.hooks.subscribe("connectivity_recorded", check)
        world.run()
        assert len(recorded) == steps
        assert [fraction for __, fraction, __ in recorded] == [
            oracle for __, __, oracle in recorded
        ]
