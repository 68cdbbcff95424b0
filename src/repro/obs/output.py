"""Merging per-run observability into the files the CLI writes.

The experiment runner hands every completed run's
:class:`~repro.obs.collector.ObsReport` to one :class:`ObsAccumulator`
in a canonical order (variants and run indices sorted per runner call),
so the merged outputs are **identical between serial and pooled
sweeps** regardless of task completion order.

Two artifacts come out:

* ``--metrics-out FILE`` — one JSON document: the run manifest, then per
  experiment the merged metrics snapshot (counters summed across every
  variant and run: agent overhead + fault + channel together) and, when
  profiling, the per-phase percentile summary;
* ``--trace-out FILE`` — one JSONL stream: a schema-versioned header
  line carrying the manifest, then every run's events tagged with
  ``experiment`` / ``scenario`` / ``variant`` / ``run`` / ``seq``.
  ``read_journal(path, EVENT_SCHEMA, "trace")`` from
  :mod:`repro.experiments.persistence` reads it back, tags included.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.obs.collector import ObsReport
from repro.obs.metrics import merge_snapshots
from repro.obs.profiler import merge_profiles, profile_table, summarize_profile

__all__ = ["ObsAccumulator", "METRICS_FILE_SCHEMA", "EVENT_SCHEMA"]

#: bumped when the ``--metrics-out`` document layout changes incompatibly.
METRICS_FILE_SCHEMA = 1

#: bumped when the ``--trace-out`` header or event line layout changes
#: incompatibly.
EVENT_SCHEMA = 1


@dataclass(frozen=True)
class _Entry:
    experiment: str
    scenario: str
    variant: str
    run_index: int
    report: ObsReport


class ObsAccumulator:
    """Collects per-run reports and writes the merged artifacts."""

    def __init__(self) -> None:
        self._entries: List[_Entry] = []
        self._experiment = ""

    def start_experiment(self, experiment_id: str) -> None:
        """Tag subsequently added reports with this experiment id."""
        self._experiment = experiment_id

    def add(
        self,
        scenario: str,
        variant: str,
        run_index: int,
        report: Optional[ObsReport],
    ) -> None:
        """Record one run's report (``None`` — obs off for that run — skipped)."""
        if report is None:
            return
        self._entries.append(
            _Entry(self._experiment, scenario, variant, run_index, report)
        )

    def __len__(self) -> int:
        return len(self._entries)

    def experiments(self) -> List[str]:
        """Experiment ids seen, in first-seen order."""
        seen: List[str] = []
        for entry in self._entries:
            if entry.experiment not in seen:
                seen.append(entry.experiment)
        return seen

    # -- merged views ---------------------------------------------------

    def merged_metrics(self, experiment_id: str) -> dict:
        """One metrics snapshot for every run of ``experiment_id``."""
        return merge_snapshots(
            entry.report.metrics
            for entry in self._entries
            if entry.experiment == experiment_id and entry.report.metrics is not None
        )

    def merged_profile(self, experiment_id: str) -> dict:
        """One merged phase profile for every run of ``experiment_id``."""
        return merge_profiles(
            entry.report.profile
            for entry in self._entries
            if entry.experiment == experiment_id
        )

    def profile_summary(self, experiment_id: str) -> dict:
        """Percentile rows for the merged profile of ``experiment_id``."""
        return summarize_profile(self.merged_profile(experiment_id))

    def profile_text(self, experiment_id: str) -> str:
        """The percentile summary as an aligned text table."""
        return profile_table(self.profile_summary(experiment_id))

    # -- writers --------------------------------------------------------

    def write_metrics(
        self,
        path: Union[str, pathlib.Path],
        manifest: dict,
        include_profile: bool = False,
    ) -> pathlib.Path:
        """Write the merged metrics JSON document; returns the path."""
        experiments: Dict[str, dict] = {}
        for experiment_id in self.experiments():
            block: Dict[str, object] = {"metrics": self.merged_metrics(experiment_id)}
            block["events_dropped"] = sum(
                entry.report.events_dropped
                for entry in self._entries
                if entry.experiment == experiment_id
            )
            if include_profile:
                block["profile"] = self.profile_summary(experiment_id)
            experiments[experiment_id] = block
        target = pathlib.Path(path)
        if target.parent != pathlib.Path(""):
            target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(
                {
                    "schema": METRICS_FILE_SCHEMA,
                    "manifest": manifest,
                    "experiments": experiments,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return target

    def write_trace(
        self, path: Union[str, pathlib.Path], manifest: dict
    ) -> pathlib.Path:
        """Write every run's events as one JSONL stream; returns the path."""
        target = pathlib.Path(path)
        if target.parent != pathlib.Path(""):
            target.parent.mkdir(parents=True, exist_ok=True)
        with target.open("w") as handle:
            header = {"schema": EVENT_SCHEMA, "kind": "header", "manifest": manifest}
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for entry in self._entries:
                if entry.report.events is None:
                    continue
                for seq, event in enumerate(entry.report.events):
                    line = {
                        "experiment": entry.experiment,
                        "scenario": entry.scenario,
                        "variant": entry.variant,
                        "run": entry.run_index,
                        "seq": seq,
                        "time": event["time"],
                        "kind": event["kind"],
                        "payload": event["payload"],
                    }
                    handle.write(json.dumps(line, sort_keys=True) + "\n")
        return target
