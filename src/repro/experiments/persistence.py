"""Saving and loading experiment reports and sweep checkpoints.

Reports serialize to plain JSON so paper-scale results can be archived,
diffed across library versions, and re-rendered without re-running the
(minutes-long) simulations.  The CLI exposes this via
``repro run figN --json-dir DIR --svg-dir DIR``.

The same JSON-safe forms back :class:`SweepCheckpoint`: an append-only
JSONL journal of completed ``(variant, run)`` results.  A paper-scale
sweep killed halfway (crash, timeout, Ctrl-C) re-runs the same command
and resumes from the journal instead of restarting — the runner skips
every task the journal already holds.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Dict, List, Optional, Tuple, Union

from repro.analysis.series import TimeSeries
from repro.analysis.svg_plot import svg_plot
from repro.errors import ExperimentError
from repro.experiments.report import ExperimentReport
from repro.faults.metrics import ResilienceReport
from repro.mapping.world import MappingResult
from repro.net.health import HealthReport
from repro.obs.collector import ObsReport
from repro.routing.world import RoutingResult
from repro.traffic.plane import TrafficReport

__all__ = [
    "report_to_dict",
    "report_from_dict",
    "save_report",
    "load_report",
    "report_paths",
    "save_svg",
    "mapping_result_to_dict",
    "mapping_result_from_dict",
    "routing_result_to_dict",
    "routing_result_from_dict",
    "SweepCheckpoint",
    "append_record",
    "read_journal",
]

#: bumped when the on-disk layout changes incompatibly.
SCHEMA_VERSION = 1

#: bumped when the checkpoint-journal layout changes incompatibly.
CHECKPOINT_SCHEMA = 1


def report_to_dict(report: ExperimentReport) -> dict:
    """The JSON-safe dictionary form of a report."""
    return {
        "schema": SCHEMA_VERSION,
        "experiment_id": report.experiment_id,
        "title": report.title,
        "paper_claim": report.paper_claim,
        "columns": list(report.columns),
        "rows": [list(row) for row in report.rows],
        "series": {
            name: {"times": list(series.times), "values": list(series.values)}
            for name, series in report.series.items()
        },
        "notes": list(report.notes),
        "y_label": report.y_label,
    }


def report_from_dict(payload: dict) -> ExperimentReport:
    """Rebuild a report from :func:`report_to_dict` output."""
    schema = payload.get("schema")
    if schema != SCHEMA_VERSION:
        raise ExperimentError(
            f"unsupported report schema {schema!r} (expected {SCHEMA_VERSION})"
        )
    report = ExperimentReport(
        experiment_id=payload["experiment_id"],
        title=payload["title"],
        paper_claim=payload["paper_claim"],
        columns=list(payload.get("columns", [])),
        rows=[list(row) for row in payload.get("rows", [])],
        notes=list(payload.get("notes", [])),
        y_label=payload.get("y_label", ""),
    )
    for name, series in payload.get("series", {}).items():
        report.series[name] = TimeSeries(
            list(series["times"]), [float(v) for v in series["values"]]
        )
    return report


def save_report(report: ExperimentReport, directory: Union[str, pathlib.Path]) -> pathlib.Path:
    """Write ``<experiment_id>.json`` under ``directory``; returns the path."""
    target_dir = pathlib.Path(directory)
    target_dir.mkdir(parents=True, exist_ok=True)
    path = target_dir / f"{report.experiment_id}.json"
    path.write_text(json.dumps(report_to_dict(report), indent=2, sort_keys=True))
    return path


def load_report(path: Union[str, pathlib.Path]) -> ExperimentReport:
    """Load a report previously written by :func:`save_report`."""
    try:
        payload = json.loads(pathlib.Path(path).read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise ExperimentError(f"cannot load report from {path}: {error}") from None
    return report_from_dict(payload)


def report_paths(target: Union[str, pathlib.Path]) -> List[pathlib.Path]:
    """Every report JSON under ``target`` (a file, or a directory walked
    recursively — service job directories nest reports per unit label)."""
    target = pathlib.Path(target)
    if target.is_dir():
        return sorted(target.rglob("*.json"))
    return [target]


def save_svg(report: ExperimentReport, directory: Union[str, pathlib.Path]) -> Union[pathlib.Path, None]:
    """Write ``<experiment_id>.svg`` if the report has curves.

    Returns the written path, or ``None`` for table-only reports.
    """
    if not report.series:
        return None
    target_dir = pathlib.Path(directory)
    target_dir.mkdir(parents=True, exist_ok=True)
    path = target_dir / f"{report.experiment_id}.svg"
    path.write_text(
        svg_plot(
            report.series,
            title=f"{report.experiment_id}: {report.title}",
            y_label=report.y_label,
        )
    )
    return path


# ----------------------------------------------------------------------
# Per-run result serialization (checkpoint journal entries)
# ----------------------------------------------------------------------


def _resilience_to_dict(report: Optional[ResilienceReport]) -> Optional[dict]:
    return dataclasses.asdict(report) if report is not None else None


def _resilience_from_dict(payload: Optional[dict]) -> Optional[ResilienceReport]:
    return ResilienceReport(**payload) if payload is not None else None


def _obs_to_dict(report: Optional[ObsReport]) -> Optional[dict]:
    return report.to_dict() if report is not None else None


def _traffic_to_dict(report: Optional[TrafficReport]) -> Optional[dict]:
    return report.to_dict() if report is not None else None


def _health_to_dict(report: Optional[HealthReport]) -> Optional[dict]:
    return report.to_dict() if report is not None else None


def _health_from_dict(payload: Optional[dict]) -> Optional[HealthReport]:
    return HealthReport.from_dict(payload) if payload is not None else None


def mapping_result_to_dict(result: MappingResult) -> dict:
    """The JSON-safe form of one mapping run's outcome."""
    return {
        "finishing_time": result.finishing_time,
        "steps_simulated": result.steps_simulated,
        "times": list(result.times),
        "average_knowledge": list(result.average_knowledge),
        "minimum_knowledge": list(result.minimum_knowledge),
        "meetings": result.meetings,
        "overhead": dict(result.overhead),
        "resilience": _resilience_to_dict(result.resilience),
        "obs": _obs_to_dict(result.obs),
        "traffic": _traffic_to_dict(result.traffic),
        "health": _health_to_dict(result.health),
    }


def mapping_result_from_dict(payload: dict) -> MappingResult:
    """Rebuild a :class:`MappingResult` from its JSON-safe form."""
    return MappingResult(
        finishing_time=payload["finishing_time"],
        steps_simulated=payload["steps_simulated"],
        times=list(payload["times"]),
        average_knowledge=[float(v) for v in payload["average_knowledge"]],
        minimum_knowledge=[float(v) for v in payload["minimum_knowledge"]],
        meetings=payload["meetings"],
        overhead={k: float(v) for k, v in payload["overhead"].items()},
        resilience=_resilience_from_dict(payload.get("resilience")),
        obs=ObsReport.from_dict(payload.get("obs")),
        traffic=TrafficReport.from_dict(payload.get("traffic")),
        health=_health_from_dict(payload.get("health")),
    )


def routing_result_to_dict(result: RoutingResult) -> dict:
    """The JSON-safe form of one routing run's outcome."""
    return {
        "times": list(result.times),
        "connectivity": list(result.connectivity),
        "converged_after": result.converged_after,
        "meetings": result.meetings,
        "overhead": dict(result.overhead),
        "guard_rejections": result.guard_rejections,
        "resilience": _resilience_to_dict(result.resilience),
        "obs": _obs_to_dict(result.obs),
        "traffic": _traffic_to_dict(result.traffic),
        "health": _health_to_dict(result.health),
    }


def routing_result_from_dict(payload: dict) -> RoutingResult:
    """Rebuild a :class:`RoutingResult` from its JSON-safe form."""
    return RoutingResult(
        times=list(payload["times"]),
        connectivity=[float(v) for v in payload["connectivity"]],
        converged_after=payload["converged_after"],
        meetings=payload["meetings"],
        overhead={k: float(v) for k, v in payload["overhead"].items()},
        guard_rejections=int(payload.get("guard_rejections", 0)),
        resilience=_resilience_from_dict(payload.get("resilience")),
        obs=ObsReport.from_dict(payload.get("obs")),
        traffic=TrafficReport.from_dict(payload.get("traffic")),
        health=_health_from_dict(payload.get("health")),
    )


# ----------------------------------------------------------------------
# JSONL journals
# ----------------------------------------------------------------------


def _parse_record(line: str) -> Optional[dict]:
    try:
        payload = json.loads(line)
    except json.JSONDecodeError:
        return None  # torn line: the writer died mid-append
    return payload if isinstance(payload, dict) else None


def append_record(path: pathlib.Path, payload: dict) -> None:
    """Append one JSON record to a journal and flush it.

    A torn trailing line (a writer killed mid-append) has no newline;
    it is sealed off first, so the new record starts a fresh line
    instead of merging with the garbage and being lost too.
    """
    with path.open("a+b") as handle:
        handle.seek(0, 2)
        if handle.tell() > 0:
            handle.seek(-1, 2)
            if handle.read(1) != b"\n":
                handle.write(b"\n")
        handle.write(json.dumps(payload, sort_keys=True).encode() + b"\n")
        handle.flush()


def read_journal(path: pathlib.Path, schema: int, what: str) -> Tuple[dict, List[dict]]:
    """A journal's header and its records, torn lines dropped.

    Raises :class:`ExperimentError` naming ``what`` when the journal is
    empty or its header does not carry ``schema``.
    """
    lines = path.read_text().splitlines()
    if not lines:
        raise ExperimentError(f"{what} {path} is empty; delete it to restart")
    header = _parse_record(lines[0])
    if header is None or header.get("schema") != schema:
        raise ExperimentError(
            f"{what} {path} has an unsupported header; delete it to restart"
        )
    records = [record for record in map(_parse_record, lines[1:]) if record is not None]
    return header, records


# ----------------------------------------------------------------------
# Sweep checkpoints
# ----------------------------------------------------------------------


class SweepCheckpoint:
    """Append-only JSONL journal of completed ``(variant, run)`` results.

    Line 1 is a header carrying the sweep fingerprint (a hash of the
    scenario, master seed, generator config and every variant config);
    each further line is one completed task.  Appends are flushed
    immediately, so a sweep killed mid-run loses at most the task being
    written.  A truncated trailing line (the kill landed mid-write) is
    tolerated and dropped on load.
    """

    def __init__(self, path: Union[str, pathlib.Path], scenario: str, fingerprint: str) -> None:
        self.path = pathlib.Path(path)
        self.scenario = scenario
        self.fingerprint = fingerprint
        self._results: Dict[Tuple[str, int], dict] = {}
        if self.path.exists():
            self._load()
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            append_record(
                self.path,
                {
                    "schema": CHECKPOINT_SCHEMA,
                    "scenario": scenario,
                    "fingerprint": fingerprint,
                }
            )

    def _load(self) -> None:
        header, entries = read_journal(self.path, CHECKPOINT_SCHEMA, "checkpoint")
        if header.get("fingerprint") != self.fingerprint:
            raise ExperimentError(
                f"checkpoint {self.path} belongs to a different sweep "
                "(configs or seed changed); delete it to restart"
            )
        for entry in entries:
            self._results[(entry["name"], entry["run_index"])] = entry["result"]

    def __contains__(self, key: Tuple[str, int]) -> bool:
        return key in self._results

    def __len__(self) -> int:
        return len(self._results)

    def result_payload(self, name: str, run_index: int) -> dict:
        """The stored JSON-safe result for one completed task."""
        return self._results[(name, run_index)]

    def record(self, name: str, run_index: int, result_payload: dict) -> None:
        """Journal one completed task (idempotent per key)."""
        key = (name, run_index)
        if key in self._results:
            return
        self._results[key] = result_payload
        append_record(
            self.path, {"name": name, "run_index": run_index, "result": result_payload}
        )
