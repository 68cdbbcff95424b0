"""One grammar for the ``--loss``, ``--traffic`` and ``--adversary`` specs.

Each row names an overlay of ``runner.SPEC_OVERLAYS``; ``parse_spec``
reads all three the same way: a bare number, or ``key=value`` pairs
whose keys are the overlay's short keys or the config's field names and
whose values are cast by the field's type.
"""

import re

import pytest

from repro.cli import build_parser
from repro.errors import ConfigurationError
from repro.experiments.runner import (
    OVERLAY_KEYS,
    SPEC_OVERLAYS,
    RunDefaults,
    overlay_fields,
    parse_spec,
)
from repro.faults.plan import AdversarySpec
from repro.net.channel import ChannelConfig
from repro.traffic.plane import TrafficConfig

#: (overlay, spec, what it parses to): a bare number, every short key,
#: and field names used as keys.
PARSES = [
    ("loss", "0.2", ChannelConfig(loss=0.2)),
    ("loss", "fixed=0.3", ChannelConfig(loss=0.3)),
    ("loss", "distance=0.4", ChannelConfig(distance_factor=0.4)),
    ("loss", "exponent=3", ChannelConfig(distance_exponent=3.0)),
    ("loss", "exp=1.5", ChannelConfig(distance_exponent=1.5)),
    ("loss", "battery=0.2", ChannelConfig(battery_factor=0.2)),
    ("loss", "retries=5", ChannelConfig(hop_retries=5)),
    ("loss", "backoff=2", ChannelConfig(backoff_base=2)),
    ("loss", "cap=8", ChannelConfig(backoff_cap=8)),
    ("loss", "loss=0.1,hop_retries=2", ChannelConfig(loss=0.1, hop_retries=2)),
    ("traffic", "0.75", TrafficConfig(rate=0.75)),
    ("traffic", "burst=4", TrafficConfig(burst_size=4)),
    ("traffic", "every=3", TrafficConfig(burst_every=3)),
    ("traffic", "cap=7", TrafficConfig(queue_capacity=7)),
    ("traffic", "queue_cap=7", TrafficConfig(queue_capacity=7)),
    ("traffic", "policy=priority", TrafficConfig(queue_policy="priority")),
    ("traffic", "ttl=30", TrafficConfig(payload_ttl=30)),
    ("traffic", "retries=5", TrafficConfig(max_retransmit=5)),
    ("traffic", "backoff=3", TrafficConfig(backoff_base=3)),
    ("traffic", "budget=2", TrafficConfig(forward_budget=2)),
    ("traffic", "fanout=4", TrafficConfig(epidemic_fanout=4)),
    ("traffic", "copies=4", TrafficConfig(spray_copies=4)),
    ("traffic", "priorities=3", TrafficConfig(priority_levels=3)),
    (
        "traffic",
        "rate=0.5, router=epidemic, payload_ttl=40, stop=50",
        TrafficConfig(rate=0.5, router="epidemic", payload_ttl=40, stop=50),
    ),
    ("adversary", "0.2", AdversarySpec(gray_fraction=0.2)),
    ("adversary", "gray=0.4", AdversarySpec(gray_fraction=0.4)),
    ("adversary", "fraction=0.4", AdversarySpec(gray_fraction=0.4)),
    ("adversary", "rate=0.5", AdversarySpec(gray_rate=0.5)),
    ("adversary", "corrupt=3", AdversarySpec(corrupt_agents=3)),
    ("adversary", "flap=2", AdversarySpec(flap_nodes=2)),
    ("adversary", "start=7", AdversarySpec(start=7)),
    ("adversary", "corrupt_agents=2,", AdversarySpec(corrupt_agents=2)),
]

#: (overlay, spec) pairs whose value does not cast to the field's type.
BAD_VALUES = [
    ("loss", "fixed=abc"),
    ("loss", "retries=2.7"),
    ("loss", "backoff=1.9"),
    ("traffic", "rate=fast"),
    ("traffic", "cap=2.5"),
    ("traffic", "stop=None"),
    ("adversary", "gray=lots"),
    ("adversary", "corrupt=1.5"),
]


@pytest.mark.parametrize("overlay, spec, expected", PARSES)
def test_spec_parses(overlay, spec, expected):
    assert parse_spec(SPEC_OVERLAYS[overlay].cls, spec) == expected


@pytest.mark.parametrize("overlay", SPEC_OVERLAYS)
def test_table_uses_every_short_key(overlay):
    used = {
        pair.partition("=")[0].strip()
        for key, spec, _ in PARSES
        if key == overlay
        for pair in spec.split(",")
        if "=" in pair
    }
    assert set(SPEC_OVERLAYS[overlay].keys) <= used


@pytest.mark.parametrize("overlay", SPEC_OVERLAYS)
@pytest.mark.parametrize(
    "spec, message",
    [
        ("", "empty {} spec"),
        ("  ", "empty {} spec"),
        ("nonsense", "malformed {} spec segment 'nonsense'; expected 'key=value'"),
        ("meteor=1", "unknown {} spec key 'meteor'; expected one of ["),
    ],
)
def test_malformed_spec_rejected(overlay, spec, message):
    entry = SPEC_OVERLAYS[overlay]
    with pytest.raises(ConfigurationError, match=re.escape(message.format(entry.field))):
        parse_spec(entry.cls, spec)


@pytest.mark.parametrize("overlay, spec", BAD_VALUES)
def test_bad_value_rejected(overlay, spec):
    entry = SPEC_OVERLAYS[overlay]
    message = f"malformed {entry.field} spec value in {spec!r}"
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        parse_spec(entry.cls, spec)


@pytest.mark.parametrize("overlay", SPEC_OVERLAYS)
def test_overlay_lands_in_its_run_defaults_field(overlay):
    entry = SPEC_OVERLAYS[overlay]
    fields = overlay_fields({overlay: "0.2"})
    assert fields == {entry.field: parse_spec(entry.cls, "0.2")}
    assert getattr(RunDefaults(**fields), entry.field) == fields[entry.field]


def test_cli_overlay_flags_are_the_overlay_keys():
    parser = build_parser()
    run = parser._subparsers._group_actions[0].choices["run"]
    (group,) = [group for group in run._action_groups if group.title == "overlays"]
    assert [action.dest for action in group._group_actions] == list(OVERLAY_KEYS)
