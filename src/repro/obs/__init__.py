"""Unified observability: metrics, structured events, phase profiling.

The paper's central quantitative claims are about *cost* — stigmergy
"imposes negligible overhead" versus the 4–5× heavier agents of related
work — so this reproduction measures instead of asserting.  The layer
has four parts:

* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges, fixed-bucket histograms, and per-step time-series rings whose
  snapshots merge associatively across process-pool workers;
* :mod:`repro.obs.collector` — the per-run collector, whose bounded
  event list carries agent hops, meetings, route installs, channel
  losses, and fault events;
* :mod:`repro.obs.profiler` — wall-time accounting per engine phase and
  hook fire, with percentile summaries;
* :mod:`repro.obs.manifest` — run manifests (seeds, config hash,
  package version, platform) stamped onto every artifact.

:class:`ObsConfig` switches the layers on per world config;
:class:`ObsCollector` wires them to a running world; the experiment
runner funnels per-run :class:`ObsReport`\\ s into an
:class:`~repro.obs.output.ObsAccumulator` behind the CLI's
``--metrics-out`` / ``--trace-out`` / ``--profile`` flags.

With everything off (the default) **nothing here runs**: worlds build no
collector, allocate no events, and produce bit-identical results at
unchanged speed — the zero-overhead contract the integration tests pin.
"""

from repro.obs.collector import ObsCollector, ObsConfig, ObsReport
from repro.obs.manifest import MANIFEST_SCHEMA, build_manifest
from repro.obs.metrics import METRICS_SCHEMA, MetricsRegistry, merge_snapshots
from repro.obs.output import EVENT_SCHEMA, ObsAccumulator
from repro.obs.profiler import (
    PhaseProfiler,
    merge_profiles,
    profile_table,
    summarize_profile,
)

__all__ = [
    "ObsConfig",
    "ObsCollector",
    "ObsReport",
    "MetricsRegistry",
    "merge_snapshots",
    "METRICS_SCHEMA",
    "EVENT_SCHEMA",
    "PhaseProfiler",
    "merge_profiles",
    "summarize_profile",
    "profile_table",
    "build_manifest",
    "MANIFEST_SCHEMA",
    "ObsAccumulator",
]
