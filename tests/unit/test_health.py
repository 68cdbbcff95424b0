"""Unit tests for the suspicion/quarantine health monitor."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.persistence import result_from_dict, result_to_dict
from repro.net.health import HealthConfig, HealthMonitor, HealthReport
from repro.routing.world import RoutingResult
from repro.sim.hooks import HookRegistry


def monitor(**overrides):
    defaults = dict(
        alpha=0.3,
        suspect_threshold=0.4,
        clear_threshold=0.5,
        min_samples=4,
        probation_after=16,
        probation_successes=2,
    )
    defaults.update(overrides)
    return HealthMonitor(HealthConfig(**defaults))


class TestHealthConfig:
    def test_defaults_valid(self):
        HealthConfig()

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(ConfigurationError):
            HealthConfig(alpha=alpha)

    @pytest.mark.parametrize("threshold", [0.0, 1.0, -0.2])
    def test_suspect_threshold_out_of_range(self, threshold):
        with pytest.raises(ConfigurationError):
            HealthConfig(suspect_threshold=threshold)

    def test_clear_below_suspect_rejected(self):
        with pytest.raises(ConfigurationError):
            HealthConfig(suspect_threshold=0.5, clear_threshold=0.4)

    def test_unwinnable_probation_rejected(self):
        # One success with tiny alpha cannot lift the pinned quality
        # from the suspect threshold to the clear threshold.
        with pytest.raises(ConfigurationError, match="unwinnable"):
            HealthConfig(
                alpha=0.05,
                suspect_threshold=0.4,
                clear_threshold=0.9,
                probation_successes=1,
            )

    def test_longer_streak_makes_probation_winnable(self):
        # The same thresholds rejected above become winnable when the
        # streak requirement gives quality more successes to climb.
        HealthConfig(
            alpha=0.3,
            suspect_threshold=0.4,
            clear_threshold=0.75,
            probation_successes=4,
        )
        with pytest.raises(ConfigurationError, match="unwinnable"):
            HealthConfig(
                alpha=0.3,
                suspect_threshold=0.4,
                clear_threshold=0.75,
                probation_successes=1,
            )

    @pytest.mark.parametrize(
        "field,value",
        [
            ("min_samples", 0),
            ("probation_after", 0),
            ("probation_successes", 0),
        ],
    )
    def test_count_fields_must_be_positive(self, field, value):
        with pytest.raises(ConfigurationError):
            HealthConfig(**{field: value})


class TestEvidence:
    def test_quality_is_ewma(self):
        m = monitor()
        m.observe(0, 1, False, now=0)
        # 0.7 * 1.0 + 0.3 * 0 = 0.7
        assert m._quality[(0, 1)] == pytest.approx(0.7)
        m.observe(0, 1, True, now=1)
        assert m._quality[(0, 1)] == pytest.approx(0.7 * 0.7 + 0.3)

    def test_no_quarantine_before_min_samples(self):
        m = monitor(min_samples=4)
        for step in range(3):
            m.observe(0, 1, False, now=step)
        assert not m.is_quarantined(0, 1)

    def test_quarantine_after_min_samples_of_failure(self):
        m = monitor(min_samples=4)
        for step in range(4):
            m.observe(0, 1, False, now=step)
        assert m.is_quarantined(0, 1)
        assert m.quarantines == 1

    def test_honest_link_never_quarantined(self):
        m = monitor()
        for step in range(50):
            m.observe(0, 1, True, now=step)
        assert not m.is_quarantined(0, 1)
        assert m.quarantines == 0

    def test_links_are_directed(self):
        m = monitor()
        for step in range(4):
            m.observe(0, 1, False, now=step)
        assert m.is_quarantined(0, 1)
        assert not m.is_quarantined(1, 0)

    def test_order_of_distinct_links_does_not_matter(self):
        a, b = monitor(), monitor()
        a.observe(0, 1, False, now=0)
        a.observe(2, 3, True, now=0)
        b.observe(2, 3, True, now=0)
        b.observe(0, 1, False, now=0)
        assert a._quality == b._quality
        assert a._state == b._state


class TestProbation:
    def quarantined(self):
        m = monitor()
        for step in range(4):
            m.observe(0, 1, False, now=step)
        assert m.is_quarantined(0, 1)
        return m

    def test_advance_releases_into_probation_after_window(self):
        m = self.quarantined()
        m.advance(now=3 + 15)
        assert m.is_quarantined(0, 1)
        m.advance(now=3 + 16)
        assert not m.is_quarantined(0, 1)
        # Probation pins the estimate at the suspect threshold.
        assert m._quality[(0, 1)] == pytest.approx(0.4)

    def test_single_probation_success_does_not_rehabilitate(self):
        m = self.quarantined()
        m.advance(now=19)
        m.observe(0, 1, True, now=19)
        assert m.rehabilitations == 0
        assert not m.is_quarantined(0, 1)  # still on probation

    def test_success_streak_rehabilitates(self):
        m = self.quarantined()
        m.advance(now=19)
        m.observe(0, 1, True, now=19)
        m.observe(0, 1, True, now=20)
        assert m.rehabilitations == 1
        assert not m.is_quarantined(0, 1)
        # Back to trusted: state entry removed entirely.
        assert (0, 1) not in m._state

    def test_probation_failure_requarantines_immediately(self):
        m = self.quarantined()
        m.advance(now=19)
        m.observe(0, 1, False, now=19)
        assert m.is_quarantined(0, 1)
        assert m.quarantines == 2

    def test_failure_resets_the_streak(self):
        m = self.quarantined()
        m.advance(now=19)
        m.observe(0, 1, True, now=19)
        m.observe(0, 1, False, now=20)  # re-quarantined
        m.advance(now=20 + 16)
        m.observe(0, 1, True, now=36)  # streak restarts at 1
        assert m.rehabilitations == 0
        m.observe(0, 1, True, now=37)
        assert m.rehabilitations == 1

    def test_rehabilitated_link_can_be_suspected_again(self):
        m = self.quarantined()
        m.advance(now=19)
        m.observe(0, 1, True, now=19)
        m.observe(0, 1, True, now=20)
        assert m.rehabilitations == 1
        for step in range(21, 40):
            m.observe(0, 1, False, now=step)
        assert m.is_quarantined(0, 1)
        assert m.quarantines == 2


class TestQueries:
    def test_filter_drops_quarantined(self):
        m = monitor()
        for step in range(4):
            m.observe(0, 1, False, now=step)
        assert m.filter_targets(0, [1, 2, 3]) == [2, 3]

    def test_filter_never_empties_the_candidate_list(self):
        m = monitor()
        for neighbor in (1, 2):
            for step in range(4):
                m.observe(0, neighbor, False, now=step)
        assert m.filter_targets(0, [1, 2]) == [1, 2]

    def test_filter_is_per_observer(self):
        m = monitor()
        for step in range(4):
            m.observe(0, 1, False, now=step)
        assert m.filter_targets(5, [1, 2]) == [1, 2]

    def test_quarantined_neighbors_sorted(self):
        m = monitor()
        for neighbor in (7, 3):
            for step in range(4):
                m.observe(0, neighbor, False, now=step)
        assert m.quarantined_neighbors(0) == [3, 7]
        assert m.quarantined_count() == 2

    def test_max_suspicion(self):
        m = monitor()
        assert m.max_suspicion() == 0.0
        m.observe(0, 1, False, now=0)
        assert m.max_suspicion() == pytest.approx(0.3)

    def test_report_snapshot(self):
        m = monitor()
        for step in range(4):
            m.observe(0, 1, False, now=step)
        m.observe(0, 2, True, now=0)
        report = m.report()
        assert report.quarantines == 1
        assert report.quarantined_final == 1
        assert report.links_tracked == 2
        assert report.worst_quality == pytest.approx(0.7**4)

    def test_report_round_trips_through_dict(self):
        report = HealthReport(
            quarantines=3,
            rehabilitations=1,
            quarantined_final=2,
            links_tracked=9,
            worst_quality=0.25,
        )
        payload = json.loads(json.dumps(result_to_dict(RoutingResult(health=report))))
        assert result_from_dict(RoutingResult, payload).health == report


class TestHooks:
    def test_quarantine_and_rehabilitation_fire_hooks(self):
        bus = HookRegistry()
        seen = []
        bus.subscribe(
            "neighbor_quarantined",
            lambda **kw: seen.append(("quarantined", kw["node"], kw["neighbor"])),
        )
        bus.subscribe(
            "neighbor_rehabilitated",
            lambda **kw: seen.append(("rehabilitated", kw["node"], kw["neighbor"])),
        )
        m = HealthMonitor(HealthConfig(), hooks=bus)
        for step in range(4):
            m.observe(0, 1, False, now=step)
        m.advance(now=19)
        m.observe(0, 1, True, now=19)
        m.observe(0, 1, True, now=20)
        assert seen == [("quarantined", 0, 1), ("rehabilitated", 0, 1)]


class TestDeterminism:
    def test_identical_histories_identical_state(self):
        history = [
            (0, 1, False),
            (0, 2, True),
            (0, 1, False),
            (0, 1, False),
            (0, 1, False),
            (0, 2, True),
        ]
        a, b = monitor(), monitor()
        for now, (node, neighbor, ok) in enumerate(history):
            a.observe(node, neighbor, ok, now)
            b.observe(node, neighbor, ok, now)
            a.advance(now)
            b.advance(now)
        assert a._quality == b._quality
        assert a._state == b._state
        assert a.report() == b.report()
