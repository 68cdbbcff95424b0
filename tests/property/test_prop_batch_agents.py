"""Property tests: SoA batch agent engine equivalence with the oracle.

The batch engine's contract is bit-identity with the per-object agent
stepper — same RoutingResult, same agent state, same routing tables —
on every configuration the engine models: both agent kinds, visiting,
fault schedules, the table guard against corrupted agents, and full
observability.  These tests run the same world twice, once per engine,
and compare everything observable.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultPlan
from repro.net.generator import GeneratorConfig, generate_manet_network
from repro.obs.collector import ObsConfig
from repro.routing.table import TableGuard
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

def fault_plan(seed):
    """A deterministic schedule mixing every fault class the engines see."""
    return (
        FaultPlan()
        .with_policy("respawn")
        .crash(4, seed % NODES)
        .crash(9, (seed + 7) % NODES)
        .recover(15, seed % NODES)
        .blackout(6, (seed + 1) % NODES, (seed + 3) % NODES)
        .restore(20, (seed + 1) % NODES, (seed + 3) % NODES)
        .battery_shock(12, (seed + 11) % NODES, 0.5)
        .wipe_table(18, (seed + 5) % NODES)
    )


#: a team small enough that corrupted agents are often the last mover
#: of a step, where the install pass settles its final rejection count.
ADVERSARY_TEAM = 12


def adversary_plan(seed):
    """Two corrupted agents forging routes, plus a crash that respawns."""
    return (
        FaultPlan()
        .with_policy("respawn")
        .corrupt_agent(3, seed % ADVERSARY_TEAM)
        .corrupt_agent(8, (seed + 5) % ADVERSARY_TEAM)
        .crash(5, (seed + 2) % NODES)
        .recover(14, (seed + 2) % NODES)
    )


def run_pair(seed, steps=30, **kw):
    worlds = []
    for batch in (False, True):
        topology = generate_manet_network(seed, CONFIG)
        config = RoutingWorldConfig(
            total_steps=steps,
            converged_after=steps // 2,
            batch_agents=batch,
            **kw,
        )
        world = RoutingWorld(topology, config, seed + 1)
        worlds.append((world.run(), world))
    return worlds


def assert_identical(obj, bat):
    obj_res, obj_world = obj
    bat_res, bat_world = bat
    assert obj_res.connectivity == bat_res.connectivity
    assert obj_res.meetings == bat_res.meetings
    assert obj_res.overhead == bat_res.overhead
    assert obj_res.guard_rejections == bat_res.guard_rejections
    for a, b in zip(obj_world.agents, bat_world.agents):
        assert a.location == b.location
        assert a.tracks == b.tracks
        assert a.history.snapshot() == b.history.snapshot()
        assert vars(a.overhead) == vars(b.overhead)
        assert (a.migration.target, a.migration.failures, a.migration.retry_at) == (
            b.migration.target,
            b.migration.failures,
            b.migration.retry_at,
        )
    for node in obj_world.topology.node_ids:
        ta, tb = obj_world.tables.table(node), bat_world.tables.table(node)
        assert ta.entries() == tb.entries()
        assert ta._sequence_floors == tb._sequence_floors


class TestBatchEngineEquivalence:
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(["oldest-node", "random"]),
        st.booleans(),
    )
    @settings(max_examples=8, deadline=None)
    def test_clean_runs_are_bit_identical(self, seed, kind, visiting):
        obj, bat = run_pair(seed, agent_kind=kind, visiting=visiting)
        assert_identical(obj, bat)

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(["oldest-node", "random"]),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=8, deadline=None)
    def test_forged_runs_are_identical(self, seed, kind, visiting, guarded):
        """Corrupted agents' forged installs agree on both paths: without
        a guard they land in the tables, with one the guard rejects them
        and both paths charge the same agents for the rejections."""
        obj, bat = run_pair(
            seed,
            agent_kind=kind,
            visiting=visiting,
            population=ADVERSARY_TEAM,
            table_guard=TableGuard() if guarded else None,
            fault_plan=adversary_plan(seed),
        )
        assert_identical(obj, bat)

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(["oldest-node", "random"]),
        st.booleans(),
    )
    @settings(max_examples=6, deadline=None)
    def test_full_obs_runs_are_identical(self, seed, kind, visiting):
        """With every obs layer on, the engine still takes its only move
        pass and announces the same ``agent_moved`` stream."""
        obj, bat = run_pair(
            seed,
            agent_kind=kind,
            visiting=visiting,
            fault_plan=fault_plan(seed),
            obs=ObsConfig(metrics=True, events=True, profile=True),
        )
        assert_identical(obj, bat)
        obj_obs, bat_obs = obj[0].obs, bat[0].obs
        moved = [
            [event for event in report.events if event["kind"] == "agent_moved"]
            for report in (obj_obs, bat_obs)
        ]
        assert moved[0] and moved[0] == moved[1]
        assert obj_obs.events == bat_obs.events
        assert obj_obs.metrics == bat_obs.metrics
        assert set(obj_obs.profile) == set(bat_obs.profile)

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.booleans(),
    )
    @settings(max_examples=6, deadline=None)
    def test_faulted_runs_are_bit_identical(self, seed, visiting):
        obj, bat = run_pair(seed, visiting=visiting, fault_plan=fault_plan(seed))
        assert_identical(obj, bat)

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=6, deadline=None)
    def test_small_history_sizes_agree(self, seed, history_size):
        """Tiny histories stress the track-drop boundary
        (``track.hops + 1 <= history_size``) in both engines."""
        obj, bat = run_pair(seed, history_size=history_size, visiting=True)
        assert_identical(obj, bat)
