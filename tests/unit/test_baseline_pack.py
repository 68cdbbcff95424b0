"""Baseline packs: envelope construction, persistence, drift detection."""

import pytest

from repro.analysis.series import TimeSeries
from repro.errors import ExperimentError
from repro.experiments.report import ExperimentReport
from repro.experiments.baseline_pack import (
    build_pack,
    check_drift,
    check_report,
    load_pack,
    metrics_from_report,
    save_pack,
)


def make_report(final=0.9, rows=2):
    report = ExperimentReport(
        experiment_id="fig7",
        title="t",
        paper_claim="c",
        columns=["a", "b"],
        rows=[[1.0, 2.0]] * rows,
    )
    report.series["conn"] = TimeSeries([0, 1, 2], [0.1, 0.5, final])
    return report


class TestMetrics:
    def test_series_mean_final_and_table_shape(self):
        metrics = metrics_from_report(make_report())
        assert metrics["table.rows"] == 2.0
        assert metrics["table.columns"] == 2.0
        assert metrics["series.conn.final"] == pytest.approx(0.9)
        assert metrics["series.conn.mean"] == pytest.approx(0.5)

    def test_empty_series_is_zero(self):
        report = make_report()
        report.series["empty"] = TimeSeries([], [])
        metrics = metrics_from_report(report)
        assert metrics["series.empty.mean"] == 0.0
        assert metrics["series.empty.final"] == 0.0


class TestPackRoundTrip:
    def test_save_load(self, tmp_path):
        pack = build_pack("p", "abcd1234", {"fig7-s1": make_report()})
        path = save_pack(pack, tmp_path / "pack.json")
        assert load_pack(path) == pack

    def test_zero_tolerance_rejected(self):
        with pytest.raises(ExperimentError, match="tolerance"):
            build_pack("p", "abcd", {}, tolerance=0)

    def test_load_corrupt_pack(self, tmp_path):
        path = tmp_path / "pack.json"
        path.write_text("{nope")
        with pytest.raises(ExperimentError, match="cannot load"):
            load_pack(path)

    def test_load_wrong_schema(self, tmp_path):
        path = tmp_path / "pack.json"
        path.write_text('{"schema": 99, "experiments": {}}')
        with pytest.raises(ExperimentError, match="unsupported schema"):
            load_pack(path)

    def test_checked_in_pack_loads(self):
        import pathlib

        baselines = pathlib.Path(__file__).parents[2] / "baselines"
        packs = sorted(baselines.glob("*.json"))
        assert packs, "baselines/ should ship at least one pack"
        for path in packs:
            load_pack(path)


class TestDriftCheck:
    def test_in_envelope_is_clean(self):
        pack = build_pack("p", "fp", {"u": make_report()})
        assert check_report(pack, "u", make_report()) == []

    def test_metric_outside_tolerance_flagged(self):
        pack = build_pack("p", "fp", {"u": make_report(final=0.9)}, tolerance=0.01)
        violations = check_report(pack, "u", make_report(final=0.5))
        assert violations and "series.conn.final" in violations[0]

    def test_within_tolerance_band_passes(self):
        pack = build_pack("p", "fp", {"u": make_report(final=1.0)}, tolerance=0.10)
        assert check_report(pack, "u", make_report(final=1.05)) == []

    def test_unknown_label_flagged(self):
        pack = build_pack("p", "fp", {"u": make_report()})
        violations = check_report(pack, "other", make_report())
        assert violations and "not in baseline pack" in violations[0]

    def test_metric_asymmetry_flagged_both_ways(self):
        pack = build_pack("p", "fp", {"u": make_report()})
        gained = make_report()
        gained.series["extra"] = TimeSeries([0], [1.0])
        assert any("missing from pack" in v for v in check_report(pack, "u", gained))

        lost = make_report()
        del lost.series["conn"]
        assert any("missing from run" in v for v in check_report(pack, "u", lost))

    def test_table_shape_change_flagged(self):
        pack = build_pack("p", "fp", {"u": make_report(rows=2)}, tolerance=0.01)
        violations = check_report(pack, "u", make_report(rows=5))
        assert any("table.rows" in v for v in violations)

    def test_check_drift_covers_every_label(self):
        pack = build_pack(
            "p", "fp", {"u1": make_report(), "u2": make_report(final=0.9)},
            tolerance=0.01,
        )
        reports = {"u1": make_report(), "u2": make_report(final=0.2)}
        violations = check_drift(pack, "fp", reports)
        assert violations and all(v.startswith("u2:") for v in violations)

    def test_fingerprint_mismatch_is_one_violation(self):
        # a pack calibrated for another spec (say runs 2 -> 3) keeps its
        # labels, so without this check its metrics would be compared.
        pack = build_pack("p", "poisoned00000000", {"u": make_report()})
        violations = check_drift(pack, "94e0f1ee09c65449", {"u": make_report()})
        assert len(violations) == 1
        assert "poisoned00000000" in violations[0]
        assert "94e0f1ee09c65449" in violations[0]
        assert "repro calibrate" in violations[0]
