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
from typing import Any, Callable, Dict, List, Optional, Tuple, Type, TypeVar, Union

from repro.analysis.series import TimeSeries
from repro.analysis.svg_plot import svg_plot
from repro.errors import ExperimentError
from repro.experiments.report import ExperimentReport
from repro.faults.metrics import ResilienceReport
from repro.net.health import HealthReport
from repro.obs.collector import ObsReport
from repro.sim.world import ScenarioResult
from repro.traffic.plane import TrafficReport

__all__ = [
    "report_to_dict",
    "report_from_dict",
    "save_report",
    "load_report",
    "report_paths",
    "save_svg",
    "result_to_dict",
    "result_from_dict",
    "SweepCheckpoint",
    "append_record",
    "read_journal",
]

R = TypeVar("R", bound=ScenarioResult)

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
    recursively — a sweep spec's run nests reports per unit label)."""
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


def _floats(values: List[float]) -> List[float]:
    return [float(value) for value in values]


#: Per result field, how a sub-report becomes JSON-safe; every other
#: field is a number or a list or dict of numbers, copied as it is.
_ENCODERS: Dict[str, Callable[[Any], Any]] = dict.fromkeys(
    ("resilience", "obs", "traffic", "health"), dataclasses.asdict
)

#: Per result field, how its JSON form is read back.  A sub-report field
#: the payload lacks keeps its dataclass default.  Float fields come
#: back as floats whatever number the JSON holds, so a resumed report
#: prints like one computed straight through.
_DECODERS: Dict[str, Callable[[Any], Any]] = {
    "resilience": lambda payload: ResilienceReport(**payload),
    "obs": lambda payload: ObsReport(**payload),
    "traffic": lambda payload: TrafficReport(**payload),
    "health": lambda payload: HealthReport(**payload),
    "overhead": lambda payload: {key: float(value) for key, value in payload.items()},
    "average_knowledge": _floats,
    "minimum_knowledge": _floats,
    "connectivity": _floats,
}


def _copy(value: Any) -> Any:
    if isinstance(value, list):
        return list(value)
    if isinstance(value, dict):
        return dict(value)
    return value


def result_to_dict(result: ScenarioResult) -> dict:
    """The JSON-safe form of one run's outcome, keyed by result field."""
    payload = {}
    for spec in dataclasses.fields(result):
        value = getattr(result, spec.name)
        if value is not None:
            value = _ENCODERS.get(spec.name, _copy)(value)
        payload[spec.name] = value
    return payload


def result_from_dict(cls: Type[R], payload: dict) -> R:
    """Rebuild a ``cls`` result from its :func:`result_to_dict` form.

    A field the payload lacks (a journal older than the field) keeps
    its default.  A sub-report lacking a field that has no default (all
    of ``ResilienceReport``'s) cannot be rebuilt: that raises
    :class:`ExperimentError`, since no default would be true.
    """
    values = {}
    for spec in dataclasses.fields(cls):
        if spec.name not in payload:
            continue
        value = payload[spec.name]
        if value is not None:
            try:
                value = _DECODERS.get(spec.name, _copy)(value)
            except TypeError as error:
                raise ExperimentError(
                    f"journal record's {spec.name!r} does not decode ({error}); "
                    "delete it to restart"
                ) from None
        values[spec.name] = value
    return cls(**values)


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
