"""Unit tests for fault plans: the spec DSL, builders, and churn."""

import pickle

import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import parse_spec
from repro.faults.plan import (
    AGENT_POLICIES,
    FAULT_KINDS,
    AdversarySpec,
    FaultEvent,
    FaultPlan,
    parse_fault_plan,
)


class TestFaultEvent:
    def test_validates_kind(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(5, "meteor", (1,))

    def test_validates_time(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(0, "crash", (1,))

    def test_validates_target_arity(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(5, "crash", (1, 2))
        with pytest.raises(ConfigurationError):
            FaultEvent(5, "blackout", (1,))

    def test_validates_shock_amount(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(5, "shock", (1,), amount=0.0)
        with pytest.raises(ConfigurationError):
            FaultEvent(5, "shock", (1,), amount=1.5)

    def test_gateway_relative_only_for_node_faults(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(5, "blackout", (1, 2), gateway_relative=True)

    def test_describe_round_trips_through_parser(self):
        events = [
            FaultEvent(5, "crash", (3,)),
            FaultEvent(6, "recover", (0,), gateway_relative=True),
            FaultEvent(7, "blackout", (2, 7)),
            FaultEvent(8, "shock", (4,), amount=0.5),
            FaultEvent(9, "kill", (3,)),
        ]
        spec = ";".join(e.describe() for e in events)
        assert parse_fault_plan(spec).events == tuple(events)


class TestFaultPlan:
    def test_events_sorted_by_time(self):
        plan = FaultPlan().recover(80, 3).crash(50, 3)
        assert [e.time for e in plan.events] == [50, 80]
        assert plan.first_fault_time == 50
        assert plan.last_fault_time == 80

    def test_builders_cover_every_kind(self):
        plan = (
            FaultPlan()
            .crash(10, 1)
            .recover(20, 1)
            .blackout(11, 0, 1)
            .restore(12, 0, 1)
            .battery_shock(13, 2, 0.4)
            .kill_agent(14, 0)
            .wipe_table(15, 3)
            .corrupt_table(16, 3)
            .loss_burst(17, 4, 0.5)
            .loss_clear(18, 4)
            .gray_failure(19, 5, rate=0.9)
            .gray_clear(20, 5)
            .flap_node(21, 6)
            .corrupt_agent(22, 1)
        )
        assert {e.kind for e in plan.events} == FAULT_KINDS

    def test_gateway_outage_pairs_crash_and_recover(self):
        plan = FaultPlan().gateway_outage(30, 60)
        assert [(e.kind, e.time, e.gateway_relative) for e in plan.events] == [
            ("crash", 30, True),
            ("recover", 60, True),
        ]

    def test_gateway_outage_must_end_after_start(self):
        with pytest.raises(ConfigurationError):
            FaultPlan().gateway_outage(30, 30)

    def test_link_flap_alternates(self):
        plan = FaultPlan().link_flap(1, 2, times=(5, 20), downtime=3)
        assert [(e.kind, e.time) for e in plan.events] == [
            ("blackout", 5),
            ("restore", 8),
            ("blackout", 20),
            ("restore", 23),
        ]

    def test_invalid_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(agent_policy="resurrect")
        for policy in AGENT_POLICIES:
            assert FaultPlan(agent_policy=policy).agent_policy == policy

    def test_hashable_and_picklable(self):
        plan = FaultPlan().crash(10, 1).with_policy("respawn")
        assert hash(plan) == hash(FaultPlan().crash(10, 1).with_policy("respawn"))
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan().first_fault_time is None
        assert len(FaultPlan().crash(5, 0)) == 1


class TestParseFaultPlan:
    def test_full_spec(self):
        plan = parse_fault_plan(
            "policy=respawn; crash@50:gw0; recover@80:gw0; shock@30:5:0.5; kill@25:a3"
        )
        assert plan.agent_policy == "respawn"
        assert [e.kind for e in plan.events] == ["kill", "shock", "crash", "recover"]
        assert plan.events[2].gateway_relative is True

    def test_empty_segments_ignored(self):
        assert len(parse_fault_plan("crash@5:1;;  ;")) == 1

    @pytest.mark.parametrize(
        "bad",
        [
            "crash",  # no time/target
            "crash@5",  # no target
            "crash@x:1",  # non-numeric time
            "crash@5:x",  # non-numeric target
            "blackout@5:3",  # edge kind without a pair
            "kill@5:3",  # kill without the a prefix
            "meteor@5:3",  # unknown kind
            "policy=resurrect",  # unknown policy
            "shock@5:3:2.0",  # amount out of range
        ],
    )
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            parse_fault_plan(bad)


class TestRandomChurn:
    def test_same_seed_same_plan(self):
        kwargs = dict(node_count=40, start=10, end=50, crashes=5)
        assert FaultPlan.random_churn(7, **kwargs) == FaultPlan.random_churn(7, **kwargs)

    def test_different_seed_or_name_different_plan(self):
        kwargs = dict(node_count=40, start=10, end=50, crashes=5)
        base = FaultPlan.random_churn(7, **kwargs)
        assert FaultPlan.random_churn(8, **kwargs) != base
        assert FaultPlan.random_churn(7, name="other", **kwargs) != base

    def test_victims_distinct_and_excluded_respected(self):
        plan = FaultPlan.random_churn(
            3, node_count=10, start=5, end=30, crashes=8, exclude=(0, 1)
        )
        victims = [e.target[0] for e in plan.events if e.kind == "crash"]
        assert len(set(victims)) == 8
        assert not {0, 1} & set(victims)

    def test_every_crash_has_a_later_recovery(self):
        plan = FaultPlan.random_churn(
            11, node_count=30, start=10, end=40, crashes=6,
            min_downtime=5, max_downtime=9,
        )
        crashes = {e.target[0]: e.time for e in plan.events if e.kind == "crash"}
        recoveries = {e.target[0]: e.time for e in plan.events if e.kind == "recover"}
        assert crashes.keys() == recoveries.keys()
        for node, crashed_at in crashes.items():
            assert 5 <= recoveries[node] - crashed_at <= 9

    def test_too_many_crashes_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.random_churn(1, node_count=3, start=5, end=10, crashes=4)

    def test_bad_windows_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.random_churn(1, node_count=9, start=10, end=10, crashes=1)
        with pytest.raises(ConfigurationError):
            FaultPlan.random_churn(
                1, node_count=9, start=5, end=10, crashes=1,
                min_downtime=4, max_downtime=2,
            )


class TestAdversaryEvents:
    def test_grayfail_needs_a_rate(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(5, "grayfail", (1,), amount=0.0)
        with pytest.raises(ConfigurationError):
            FaultEvent(5, "grayfail", (1,), amount=1.5)

    def test_grayfail_builder(self):
        plan = FaultPlan().gray_failure(10, 3, rate=0.9).gray_clear(40, 3)
        kinds = [event.kind for event in plan.events]
        assert kinds == ["grayfail", "grayclear"]
        assert plan.events[0].amount == 0.9

    def test_flap_validation(self):
        with pytest.raises(ConfigurationError, match="duty"):
            FaultEvent(5, "flap", (1,), amount=0.0, period=8, cycles=3)
        with pytest.raises(ConfigurationError, match="period"):
            FaultEvent(5, "flap", (1,), amount=0.5, period=1, cycles=3)
        with pytest.raises(ConfigurationError, match="cycles"):
            FaultEvent(5, "flap", (1,), amount=0.5, period=8, cycles=0)
        with pytest.raises(ConfigurationError, match="target"):
            FaultEvent(5, "flap", (1, 2, 3), amount=0.5, period=8, cycles=3)

    def test_period_and_cycles_rejected_off_flap(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(5, "crash", (1,), period=8)

    def test_corruptagent_is_an_agent_fault(self):
        event = FaultPlan().corrupt_agent(25, 3).events[0]
        assert event.describe() == "corruptagent@25:a3"
        with pytest.raises(ConfigurationError):
            FaultEvent(25, "corruptagent", (3,), gateway_relative=True)

    @pytest.mark.parametrize(
        "spec",
        [
            "grayfail@30:5:0.9",
            "grayclear@60:5",
            "grayfail@30:gw0:0.5",
            "flap@30:5:0.5:8:3",
            "flap@30:2-7:0.5:8:3",
            "corruptagent@25:a3",
        ],
    )
    def test_spec_round_trips(self, spec):
        plan = parse_fault_plan(spec)
        assert len(plan) == 1
        assert plan.events[0].describe() == spec
        assert parse_fault_plan(plan.describe()).events == plan.events

    def test_gateway_relative_grayfail(self):
        event = parse_fault_plan("grayfail@30:gw1:0.9").events[0]
        assert event.gateway_relative
        assert event.target == (1,)


class TestRandomAdversary:
    def build(self, seed=7, name="adversary:test", **spec_fields):
        spec = AdversarySpec(
            **{"gray_fraction": 0.2, "gray_rate": 0.9, "corrupt_agents": 3, **spec_fields}
        )
        return FaultPlan.random_adversary(
            seed, spec, node_count=30, population=10, exclude=(0, 1), name=name
        )

    def test_deterministic_per_seed(self):
        assert self.build().events == self.build().events
        assert self.build(seed=8).events != self.build().events

    def test_name_splits_the_stream(self):
        assert (
            self.build(name="adversary:a").events
            != self.build(name="adversary:b").events
        )

    def test_counts_and_exclusions(self):
        plan = self.build()
        gray = [e for e in plan.events if e.kind == "grayfail"]
        corrupt = [e for e in plan.events if e.kind == "corruptagent"]
        # 20% of the 28 eligible nodes, rounded.
        assert len(gray) == 6
        assert len(corrupt) == 3
        assert len({e.target[0] for e in gray}) == len(gray)
        assert all(e.target[0] not in (0, 1) for e in gray)
        assert all(e.target[0] < 10 for e in corrupt)

    def test_flap_nodes_are_distinct_from_gray(self):
        plan = self.build(flap_nodes=4)
        gray = {e.target[0] for e in plan.events if e.kind == "grayfail"}
        flap = {e.target[0] for e in plan.events if e.kind == "flap"}
        assert not gray & flap
        assert len(flap) == 4

    def test_agent_policy_defaults_to_freeze(self):
        assert self.build().agent_policy == "freeze"

    def test_corrupting_more_agents_than_population_rejected(self):
        with pytest.raises(ConfigurationError):
            self.build(corrupt_agents=11)

    def test_too_many_victims_rejected(self):
        with pytest.raises(ConfigurationError):
            self.build(gray_fraction=1.0, flap_nodes=5)


class TestAdversarySpec:
    def test_bare_number_is_a_gray_fraction(self):
        spec = parse_spec(AdversarySpec, "0.2")
        assert spec == AdversarySpec(gray_fraction=0.2)

    def test_long_form(self):
        spec = parse_spec(AdversarySpec, "gray=0.3,rate=0.8,corrupt=2,flap=1,start=5")
        assert spec == AdversarySpec(
            gray_fraction=0.3,
            gray_rate=0.8,
            corrupt_agents=2,
            flap_nodes=1,
            start=5,
        )

    @pytest.mark.parametrize(
        "bad",
        ["", "gray", "meteor=1", "gray=lots", "1.5", "rate=0", "start=0"],
    )
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            parse_spec(AdversarySpec, bad)

    def test_spec_is_hashable_and_frozen(self):
        spec = parse_spec(AdversarySpec, "0.1")
        hash(spec)
        with pytest.raises(Exception):
            spec.gray_fraction = 0.5
