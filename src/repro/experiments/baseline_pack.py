"""Calibrated baseline packs: expected-metric envelopes per scenario.

A baseline pack is a checked-in JSON file (like ``BENCH_substrate.json``
for the perf substrate) holding, per expanded sweep unit, the headline
metrics its report is expected to produce: the mean and final value of
every series plus the table shape.  Since every run is seed-driven and
deterministic, the envelope is tight — the tolerance only absorbs
floating-point drift across platforms, not run-to-run noise.

``repro calibrate SPEC --out PACK`` regenerates a pack by running the
spec; the drift check (run by ``repro run SPEC`` after the last unit
of any spec that names a ``baseline_pack``, and by the CI smoke) flags
runs whose metrics left the envelope — the earliest possible signal
that a refactor changed simulation outcomes.  A pack calibrated for a
different spec fingerprint is itself the one violation: its labels may
match, but its numbers describe another sweep.
"""

from __future__ import annotations

import json
import math
import pathlib
from typing import Dict, List, Mapping, Union

from repro.errors import ExperimentError
from repro.experiments.report import ExperimentReport

__all__ = [
    "PACK_SCHEMA",
    "DEFAULT_TOLERANCE",
    "metrics_from_report",
    "build_pack",
    "save_pack",
    "load_pack",
    "check_report",
    "check_drift",
]

#: bumped when the pack layout changes incompatibly.
PACK_SCHEMA = 1

#: relative tolerance absorbing cross-platform float drift only —
#: same-seed runs on one machine reproduce the baseline exactly.
DEFAULT_TOLERANCE = 0.05


def metrics_from_report(report: ExperimentReport) -> Dict[str, float]:
    """The headline metric envelope of one report.

    Every series contributes its mean and final value; the table
    contributes its shape.  All values are plain floats so packs diff
    cleanly in review.
    """
    metrics: Dict[str, float] = {
        "table.rows": float(len(report.rows)),
        "table.columns": float(len(report.columns)),
    }
    for name, series in report.series.items():
        values = series.values
        if values:
            metrics[f"series.{name}.mean"] = math.fsum(values) / len(values)
            metrics[f"series.{name}.final"] = float(values[-1])
        else:
            metrics[f"series.{name}.mean"] = 0.0
            metrics[f"series.{name}.final"] = 0.0
    return metrics


def build_pack(
    name: str,
    spec_fingerprint: str,
    reports: Mapping[str, ExperimentReport],
    tolerance: float = DEFAULT_TOLERANCE,
) -> dict:
    """Assemble a pack from one calibration run's reports (label-keyed)."""
    if tolerance <= 0:
        raise ExperimentError(f"pack tolerance must be > 0, got {tolerance}")
    return {
        "schema": PACK_SCHEMA,
        "name": name,
        "tolerance": tolerance,
        "spec_fingerprint": spec_fingerprint,
        "experiments": {
            label: {
                "experiment_id": report.experiment_id,
                "metrics": metrics_from_report(report),
            }
            for label, report in sorted(reports.items())
        },
    }


def save_pack(pack: dict, path: Union[str, pathlib.Path]) -> pathlib.Path:
    """Write a pack as pretty sorted JSON (diff-friendly); returns path."""
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(pack, indent=2, sort_keys=True) + "\n")
    return target


def load_pack(path: Union[str, pathlib.Path]) -> dict:
    """Load and sanity-check a pack written by :func:`save_pack`."""
    try:
        pack = json.loads(pathlib.Path(path).read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise ExperimentError(f"cannot load baseline pack {path}: {error}") from None
    if not isinstance(pack, dict) or pack.get("schema") != PACK_SCHEMA:
        raise ExperimentError(
            f"baseline pack {path} has unsupported schema "
            f"{pack.get('schema') if isinstance(pack, dict) else pack!r} "
            f"(expected {PACK_SCHEMA})"
        )
    if not isinstance(pack.get("experiments"), dict):
        raise ExperimentError(f"baseline pack {path} has no 'experiments' block")
    return pack


def check_report(
    pack: dict, label: str, report: ExperimentReport
) -> List[str]:
    """Drift violations of one labelled report against the pack.

    A violation is any metric outside the relative tolerance band, a
    metric present on one side only, or a label the pack has never been
    calibrated for.  Returns an empty list when the report is in
    envelope.
    """
    entry = pack["experiments"].get(label)
    if entry is None:
        known = ", ".join(sorted(pack["experiments"])) or "(none)"
        return [f"{label}: not in baseline pack (calibrated labels: {known})"]
    tolerance = float(pack.get("tolerance", DEFAULT_TOLERANCE))
    expected = entry.get("metrics", {})
    measured = metrics_from_report(report)
    violations: List[str] = []
    for metric in sorted(set(expected) | set(measured)):
        if metric not in expected:
            violations.append(f"{label}: metric {metric!r} missing from pack")
            continue
        if metric not in measured:
            violations.append(f"{label}: metric {metric!r} missing from run")
            continue
        base = float(expected[metric])
        value = float(measured[metric])
        band = tolerance * max(abs(base), 1e-9)
        if abs(value - base) > band:
            violations.append(
                f"{label}: {metric} = {value:.6g} outside "
                f"{base:.6g} +/- {band:.3g}"
            )
    return violations


def check_drift(
    pack: dict, spec_fingerprint: str, reports: Mapping[str, ExperimentReport]
) -> List[str]:
    """Drift violations of a whole spec run's reports against the pack."""
    calibrated = pack.get("spec_fingerprint")
    if calibrated != spec_fingerprint:
        return [
            f"pack {pack.get('name')!r} was calibrated for spec fingerprint "
            f"{calibrated}, but this spec's fingerprint is {spec_fingerprint}; "
            "re-run repro calibrate"
        ]
    violations: List[str] = []
    for label, report in sorted(reports.items()):
        violations.extend(check_report(pack, label, report))
    return violations
