"""Unit tests for the lossy-channel model and its loss policies."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import parse_spec
from repro.net.channel import (
    GRAY_KINDS,
    BatteryLoss,
    ChannelConfig,
    ChannelModel,
    CompositeLoss,
    DistanceLoss,
    FixedLoss,
    policy_from_config,
)
from repro.net.geometry import Point
from repro.net.manual import fixed_topology
from repro.net.node import Node
from repro.net.radio import FixedRange


def line3():
    return fixed_topology(3, [(0, 1), (1, 0), (1, 2), (2, 1)])


class _ZeroRange:
    """A radio whose effective range has collapsed entirely."""

    def current_range(self) -> float:
        return 0.0


class TestChannelConfig:
    def test_defaults_are_lossless(self):
        config = ChannelConfig()
        assert config.lossless

    def test_any_loss_term_breaks_losslessness(self):
        assert not ChannelConfig(loss=0.1).lossless
        assert not ChannelConfig(distance_factor=0.1).lossless
        assert not ChannelConfig(battery_factor=0.1).lossless

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"loss": -0.1},
            {"loss": 1.5},
            {"distance_factor": 2.0},
            {"battery_factor": -1.0},
            {"distance_exponent": 0.0},
            {"hop_retries": -1},
            {"backoff_base": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            ChannelConfig(**kwargs)

    def test_frozen_and_hashable(self):
        config = ChannelConfig(loss=0.2)
        assert hash(config) == hash(ChannelConfig(loss=0.2))
        with pytest.raises(Exception):
            config.loss = 0.5


class TestPolicies:
    def test_fixed_loss_is_constant(self):
        topology = line3()
        policy = FixedLoss(0.3)
        a, b = topology.node(0), topology.node(1)
        assert policy.loss_probability(a, b) == 0.3
        assert policy.loss_probability(b, a) == 0.3

    def test_distance_loss_grows_toward_range_edge(self):
        topology = line3()
        source, destination = topology.node(0), topology.node(1)
        # FixedRange(1.0) with circle-layout nodes far apart: ratio caps at 1.
        policy = DistanceLoss(0.4, exponent=2.0)
        assert policy.loss_probability(source, destination) == pytest.approx(0.4)
        assert policy.loss_probability(source, source) == 0.0

    def test_distance_loss_scales_with_ratio(self):
        source = Node(0, Point(0.0, 0.0), FixedRange(10.0))
        destination = Node(1, Point(5.0, 0.0), FixedRange(10.0))
        policy = DistanceLoss(0.4, exponent=2.0)
        # half-way into range, squared: 0.4 * 0.25
        assert policy.loss_probability(source, destination) == pytest.approx(0.1)

    def test_distance_loss_total_when_range_collapsed(self):
        topology = line3()
        source, destination = topology.node(0), topology.node(1)
        source.radio = _ZeroRange()
        policy = DistanceLoss(0.4)
        assert policy.loss_probability(source, destination) == 1.0

    def test_battery_loss_tracks_depletion(self):
        topology = line3()
        source, destination = topology.node(0), topology.node(1)
        policy = BatteryLoss(0.5)
        assert policy.loss_probability(source, destination) == 0.0
        source.battery.shock(0.6)
        assert policy.loss_probability(source, destination) == pytest.approx(0.3)

    def test_composite_combines_independent_failures(self):
        topology = line3()
        a, b = topology.node(0), topology.node(1)
        policy = CompositeLoss([FixedLoss(0.5), FixedLoss(0.5)])
        assert policy.loss_probability(a, b) == pytest.approx(0.75)

    def test_policy_from_config_picks_terms(self):
        assert isinstance(policy_from_config(ChannelConfig()), FixedLoss)
        assert isinstance(policy_from_config(ChannelConfig(loss=0.2)), FixedLoss)
        assert isinstance(
            policy_from_config(ChannelConfig(distance_factor=0.2)), DistanceLoss
        )
        assert isinstance(
            policy_from_config(ChannelConfig(loss=0.2, battery_factor=0.1)),
            CompositeLoss,
        )


class TestChannelModel:
    def test_lossless_channel_always_delivers(self):
        channel = ChannelModel(line3(), ChannelConfig(), seed=7)
        assert all(
            channel.attempt(0, 1, now, f"hop:{now}") for now in range(50)
        )
        assert channel.stats.losses == 0
        assert channel.stats.attempts == 50

    def test_total_loss_never_delivers(self):
        channel = ChannelModel(line3(), ChannelConfig(loss=1.0), seed=7)
        assert not any(
            channel.attempt(0, 1, now, f"hop:{now}") for now in range(20)
        )
        assert channel.stats.loss_rate == 1.0

    def test_outcome_is_a_pure_function_of_time_and_key(self):
        first = ChannelModel(line3(), ChannelConfig(loss=0.5), seed=11)
        second = ChannelModel(line3(), ChannelConfig(loss=0.5), seed=11)
        outcomes_first = [
            first.attempt(0, 1, now, f"hop:{agent}")
            for now in range(10)
            for agent in range(5)
        ]
        # Query in a scrambled order: outcomes must match pointwise.
        outcomes_second = {
            (now, agent): second.attempt(0, 1, now, f"hop:{agent}")
            for agent in reversed(range(5))
            for now in reversed(range(10))
        }
        reordered = [
            outcomes_second[(now, agent)] for now in range(10) for agent in range(5)
        ]
        assert outcomes_first == reordered

    def test_different_seeds_differ(self):
        a = ChannelModel(line3(), ChannelConfig(loss=0.5), seed=1)
        b = ChannelModel(line3(), ChannelConfig(loss=0.5), seed=2)
        outcomes_a = [a.attempt(0, 1, now, "hop:0") for now in range(64)]
        outcomes_b = [b.attempt(0, 1, now, "hop:0") for now in range(64)]
        assert outcomes_a != outcomes_b

    def test_moderate_loss_rate_is_roughly_respected(self):
        channel = ChannelModel(line3(), ChannelConfig(loss=0.3), seed=5)
        outcomes = [channel.attempt(0, 1, now, "hop:0") for now in range(2000)]
        observed = 1.0 - sum(outcomes) / len(outcomes)
        assert 0.25 < observed < 0.35

    def test_burst_stacks_on_policy_and_clears(self):
        channel = ChannelModel(line3(), ChannelConfig(loss=0.2), seed=5)
        assert channel.set_burst(1, 1.0)
        # Bursts affect the *source* of an attempt.
        assert channel.loss_probability(1, 0) == 1.0
        assert channel.loss_probability(0, 1) == pytest.approx(0.2)
        assert not channel.set_burst(1, 1.0)  # idempotent re-apply
        assert channel.clear_burst(1)
        assert not channel.clear_burst(1)
        assert channel.loss_probability(1, 0) == pytest.approx(0.2)

    def test_burst_on_lossless_channel_loses(self):
        channel = ChannelModel(line3(), ChannelConfig(), seed=5)
        channel.set_burst(0, 1.0)
        assert not channel.attempt(0, 1, 3, "hop:0")
        assert channel.attempt(1, 2, 3, "hop:1")

    def test_hops_lossless_tracks_config_and_bursts_not_gray(self):
        channel = ChannelModel(line3(), ChannelConfig(), seed=5)
        assert channel.hops_lossless
        channel.set_grayfail(1, 0.9)  # payload kinds only: hops still safe
        assert channel.hops_lossless
        channel.set_burst(0, 0.5)
        assert not channel.hops_lossless
        channel.clear_burst(0)
        assert channel.hops_lossless
        assert not ChannelModel(line3(), ChannelConfig(loss=0.1), seed=5).hops_lossless

    def test_burst_validation(self):
        channel = ChannelModel(line3(), ChannelConfig(), seed=5)
        with pytest.raises(ConfigurationError):
            channel.set_burst(0, 0.0)
        with pytest.raises(ConfigurationError):
            channel.set_burst(0, 1.5)

    def test_losses_tallied_by_key_kind(self):
        channel = ChannelModel(line3(), ChannelConfig(loss=1.0), seed=5)
        channel.attempt(0, 1, 1, "hop:0")
        channel.attempt(0, 1, 1, "meet:0")
        channel.attempt(0, 1, 2, "hop:1")
        assert channel.stats.losses_by_kind == {"hop": 2, "meet": 1}


class TestParseChannelSpec:
    def test_bare_number_is_fixed_loss(self):
        config = parse_spec(ChannelConfig, "0.25")
        assert config == ChannelConfig(loss=0.25)

    def test_long_form(self):
        config = parse_spec(
            ChannelConfig,
            "fixed=0.1,distance=0.3,exp=3,battery=0.2,retries=5,backoff=2",
        )
        assert config == ChannelConfig(
            loss=0.1,
            distance_factor=0.3,
            distance_exponent=3.0,
            battery_factor=0.2,
            hop_retries=5,
            backoff_base=2,
        )

    @pytest.mark.parametrize("spec", ["", "nonsense", "p=0.2", "fixed=abc"])
    def test_malformed_specs_raise(self, spec):
        with pytest.raises(ConfigurationError):
            parse_spec(ChannelConfig, spec)

    def test_out_of_range_value_raises(self):
        with pytest.raises(ConfigurationError):
            parse_spec(ChannelConfig, "1.2")


class TestLossPolicyEdgeCases:
    def test_composite_clamps_at_certain_loss(self):
        topology = line3()
        a, b = topology.node(0), topology.node(1)
        policy = CompositeLoss([FixedLoss(1.0), FixedLoss(0.5)])
        assert policy.loss_probability(a, b) == pytest.approx(1.0)

    def test_composite_of_nothing_is_lossless(self):
        topology = line3()
        a, b = topology.node(0), topology.node(1)
        assert CompositeLoss([]).loss_probability(a, b) == 0.0

    def test_distance_loss_zero_distance_is_safe(self):
        # Two nodes at the same point: a target at the sender's feet
        # never loses to distance, whatever the exponent.
        source = Node(0, Point(3.0, 4.0), FixedRange(10.0))
        destination = Node(1, Point(3.0, 4.0), FixedRange(10.0))
        for exponent in (0.5, 1.0, 2.0):
            policy = DistanceLoss(0.9, exponent=exponent)
            assert policy.loss_probability(source, destination) == 0.0

    def test_battery_loss_total_factor_on_dead_battery(self):
        topology = line3()
        source, destination = topology.node(0), topology.node(1)
        source.battery.shock(1.0)
        assert source.battery.level == 0.0
        assert BatteryLoss(1.0).loss_probability(source, destination) == 1.0
        assert BatteryLoss(0.4).loss_probability(
            source, destination
        ) == pytest.approx(0.4)


class TestGrayFailures:
    def test_rate_validation(self):
        channel = ChannelModel(line3(), ChannelConfig(), seed=7)
        for rate in (0.0, -0.1, 1.5):
            with pytest.raises(ConfigurationError):
                channel.set_grayfail(1, rate)

    def test_set_and_clear_report_state_changes(self):
        channel = ChannelModel(line3(), ChannelConfig(), seed=7)
        assert channel.set_grayfail(1, 0.9)
        assert not channel.set_grayfail(1, 0.9)  # idempotent re-apply
        assert channel.set_grayfail(1, 0.5)  # rate change counts
        assert channel.active_grayfails == {1: 0.5}
        assert channel.clear_grayfail(1)
        assert not channel.clear_grayfail(1)
        assert channel.active_grayfails == {}

    def test_gray_composes_on_the_receiving_side(self):
        channel = ChannelModel(line3(), ChannelConfig(loss=0.5), seed=7)
        channel.set_grayfail(1, 0.5)
        # Independent terms: 1 - 0.5 * 0.5 toward the gray node...
        assert channel.loss_probability(0, 1, "pay") == pytest.approx(0.75)
        # ...but only the base loss when the gray node is the sender.
        assert channel.loss_probability(1, 0, "pay") == pytest.approx(0.5)

    def test_gray_only_affects_data_plane_kinds(self):
        channel = ChannelModel(line3(), ChannelConfig(), seed=7)
        channel.set_grayfail(1, 1.0)
        for kind in sorted(GRAY_KINDS):
            assert channel.loss_probability(0, 1, kind) == 1.0
        # Control plane — agent hops, meetings, acks — sails through:
        # that selective honesty is what makes the failure gray.
        for kind in ("hop", "meet", "payack", ""):
            assert channel.loss_probability(0, 1, kind) == 0.0

    def test_gray_node_swallows_payload_attempts(self):
        channel = ChannelModel(line3(), ChannelConfig(), seed=7)
        channel.set_grayfail(1, 1.0)
        assert not any(
            channel.attempt(0, 1, now, f"pay:{now}") for now in range(20)
        )
        assert all(
            channel.attempt(0, 1, now, f"hop:{now}") for now in range(20)
        )
        assert channel.stats.losses_by_kind == {"pay": 20}

    def test_gray_defeats_the_lossless_fast_path(self):
        # A lossless config normally short-circuits attempt(); an active
        # gray failure must still be consulted.
        channel = ChannelModel(line3(), ChannelConfig(), seed=7)
        assert channel.attempt(0, 1, 1, "pay:a")
        channel.set_grayfail(1, 1.0)
        assert not channel.attempt(0, 1, 2, "pay:b")
        channel.clear_grayfail(1)
        assert channel.attempt(0, 1, 3, "pay:c")

    def test_attempts_are_deterministic_per_seed(self):
        def outcomes(seed):
            channel = ChannelModel(line3(), ChannelConfig(), seed=seed)
            channel.set_grayfail(1, 0.6)
            return [channel.attempt(0, 1, now, f"pay:{now}") for now in range(30)]

        assert outcomes(7) == outcomes(7)
        assert outcomes(7) != outcomes(8)
