"""Property round-trips for the persistence layer.

Every JSON-safe form must survive ``dumps -> loads -> from_dict`` and
rebuild an equal object, for arbitrary payloads including the optional
obs / traffic / health / resilience attachments.  Hypothesis drives the
shapes; strategies stay JSON-clean (finite floats, string keys) because
the journal is plain JSON by design.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExperimentError
from repro.experiments.persistence import (
    report_from_dict,
    report_to_dict,
    result_from_dict,
    result_to_dict,
)
from repro.experiments.report import ExperimentReport
from repro.analysis.series import TimeSeries
from repro.faults.metrics import ResilienceReport
from repro.mapping.world import MappingResult
from repro.net.health import HealthReport
from repro.obs.collector import ObsReport
from repro.routing.world import RoutingResult
from repro.traffic.plane import LATENCY_BUCKETS, TrafficReport

finite = st.floats(allow_nan=False, allow_infinity=False, width=32)
times = st.integers(min_value=0, max_value=10_000)
counts = st.integers(min_value=0, max_value=1_000)
names = st.text(
    alphabet=st.characters(whitelist_categories=("L", "N"), whitelist_characters="-_"),
    min_size=1,
    max_size=12,
)


@st.composite
def series_pairs(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    return TimeSeries(
        [draw(times) for _ in range(n)], [draw(finite) for _ in range(n)]
    )


resilience_reports = st.one_of(
    st.none(),
    st.builds(
        ResilienceReport,
        faults_injected=counts,
        first_fault_time=st.none() | times,
        last_fault_time=st.none() | times,
        baseline=st.none() | finite,
        dip_depth=st.none() | finite,
        reconverge_steps=st.none() | times,
        agents_total=counts,
        agents_alive=counts,
    ),
)

obs_reports = st.one_of(
    st.none(),
    st.builds(
        ObsReport,
        schema=st.just(1),
        metrics=st.none() | st.dictionaries(names, finite, max_size=4),
        events=st.none()
        | st.lists(st.dictionaries(names, counts, max_size=3), max_size=3),
        events_dropped=counts,
        profile=st.none() | st.dictionaries(names, finite, max_size=3),
    ),
)

traffic_reports = st.one_of(
    st.none(),
    st.builds(
        TrafficReport,
        schema=st.just(1),
        router=names,
        generated=counts,
        delivered=counts,
        expired=counts,
        dropped=counts,
        in_flight=counts,
        buffered=counts,
        delivery_ratio=finite,
        mean_latency=finite,
        mean_hops=finite,
        latency_bounds=st.lists(times, max_size=6),
        latency_counts=st.lists(counts, max_size=6),
        counters=st.dictionaries(names, counts, max_size=4),
        queues=st.dictionaries(names, counts, max_size=4),
    ),
)

health_reports = st.one_of(
    st.none(),
    st.builds(
        HealthReport,
        quarantines=counts,
        rehabilitations=counts,
        quarantined_final=counts,
        links_tracked=counts,
        worst_quality=finite,
    ),
)

mapping_results = st.builds(
    MappingResult,
    finishing_time=st.none() | times,
    steps_simulated=times,
    times=st.lists(times, max_size=8),
    average_knowledge=st.lists(finite, max_size=8),
    minimum_knowledge=st.lists(finite, max_size=8),
    meetings=counts,
    overhead=st.dictionaries(names, finite, max_size=4),
    resilience=resilience_reports,
    obs=obs_reports,
    traffic=traffic_reports,
    health=health_reports,
)

routing_results = st.builds(
    RoutingResult,
    times=st.lists(times, max_size=8),
    connectivity=st.lists(finite, max_size=8),
    converged_after=times,
    meetings=counts,
    overhead=st.dictionaries(names, finite, max_size=4),
    guard_rejections=counts,
    resilience=resilience_reports,
    obs=obs_reports,
    traffic=traffic_reports,
    health=health_reports,
)


@st.composite
def experiment_reports(draw):
    columns = draw(st.lists(names, max_size=4))
    report = ExperimentReport(
        experiment_id=draw(names),
        title=draw(st.text(max_size=30)),
        paper_claim=draw(st.text(max_size=30)),
        columns=columns,
        rows=draw(
            st.lists(
                st.lists(finite, min_size=len(columns), max_size=len(columns)),
                max_size=3,
            )
        ),
        notes=draw(st.lists(st.text(max_size=20), max_size=3)),
        y_label=draw(st.text(max_size=15)),
    )
    for name in draw(st.lists(names, max_size=3, unique=True)):
        report.series[name] = draw(series_pairs())
    return report


def json_round_trip(payload):
    """What the journal actually does: serialize, then parse back."""
    return json.loads(json.dumps(payload, sort_keys=True, allow_nan=False))


@settings(max_examples=50, deadline=None)
@given(experiment_reports())
def test_report_round_trip(report):
    clone = report_from_dict(json_round_trip(report_to_dict(report)))
    assert report_to_dict(clone) == report_to_dict(report)


@settings(max_examples=50, deadline=None)
@given(mapping_results)
def test_mapping_result_round_trip(result):
    payload = json_round_trip(result_to_dict(result))
    clone = result_from_dict(MappingResult, payload)
    assert dataclasses.asdict(clone) == dataclasses.asdict(result)


@settings(max_examples=50, deadline=None)
@given(routing_results)
def test_routing_result_round_trip(result):
    payload = json_round_trip(result_to_dict(result))
    clone = result_from_dict(RoutingResult, payload)
    assert dataclasses.asdict(clone) == dataclasses.asdict(result)


#: sub-reports whose every field has a default.  ``ResilienceReport`` has
#: none, so a resilience payload lacking any field must not decode.
DEFAULTED_REPORTS = {"obs": ObsReport, "traffic": TrafficReport, "health": HealthReport}


@settings(max_examples=50, deadline=None)
@given(routing_results, st.data())
def test_sub_report_payload_lacking_fields_decodes_to_defaults(result, data):
    payload = json_round_trip(result_to_dict(result))
    for name in (*DEFAULTED_REPORTS, "resilience"):
        if payload[name] is not None:
            for key in data.draw(st.sets(st.sampled_from(sorted(payload[name])))):
                del payload[name][key]
    resilience = payload.pop("resilience")
    if resilience is not None and len(resilience) < len(dataclasses.fields(ResilienceReport)):
        with pytest.raises(ExperimentError, match="delete it to restart"):
            result_from_dict(RoutingResult, {"resilience": resilience})
    else:
        decoded = result_from_dict(RoutingResult, {"resilience": resilience})
        assert decoded.resilience == result.resilience
    clone = result_from_dict(RoutingResult, payload)
    for name, cls in DEFAULTED_REPORTS.items():
        if payload[name] is None:
            assert getattr(clone, name) is None
            continue
        kept, default = getattr(result, name), cls()
        for spec in dataclasses.fields(cls):
            source = kept if spec.name in payload[name] else default
            assert getattr(getattr(clone, name), spec.name) == getattr(source, spec.name)


def test_empty_traffic_payload_keeps_the_overflow_bucket():
    traffic = result_from_dict(RoutingResult, {"traffic": {}}).traffic
    assert traffic == TrafficReport()
    assert traffic.latency_counts == [0] * (len(LATENCY_BUCKETS) + 1)
