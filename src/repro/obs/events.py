"""Schema-versioned structured events with pluggable sinks.

Every noteworthy simulation occurrence — an agent hop, a meeting, a
route install, a channel loss, a fault — can be emitted as an
:class:`Event` onto an :class:`EventBus`.  The bus fans events out to
*sinks*:

* :class:`MemorySink` — bounded in-memory list (tests, adapters),
* :class:`JsonlSink` — one JSON object per line, preceded by a header
  line carrying :data:`EVENT_SCHEMA` and an optional run manifest,
* :class:`NullSink` — discards everything (the default when
  observability is off; nothing upstream even allocates an event then,
  because worlds guard emission on the collector being present).

The JSONL layout is the interchange format: :func:`read_jsonl` loads a
file back into ``(header, [Event, ...])``, and the round-trip is exact
for JSON-safe payloads.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, TextIO, Tuple, Union

from repro.errors import ConfigurationError
from repro.types import Time

__all__ = [
    "EVENT_SCHEMA",
    "Event",
    "EventSink",
    "NullSink",
    "MemorySink",
    "JsonlSink",
    "EventBus",
    "read_jsonl",
]

#: bumped when the event payload layout changes incompatibly.
EVENT_SCHEMA = 1


@dataclass(frozen=True)
class Event:
    """One structured observation: when, what kind, and details."""

    time: Time
    kind: str
    payload: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The JSON-safe form (one JSONL line body)."""
        return {"time": self.time, "kind": self.kind, "payload": dict(self.payload)}

    @staticmethod
    def from_dict(payload: dict) -> "Event":
        """Rebuild an event from :meth:`to_dict` output."""
        return Event(
            time=payload["time"],
            kind=payload["kind"],
            payload=dict(payload.get("payload", {})),
        )


class EventSink:
    """Sink interface: receives events, can be closed."""

    def emit(self, event: Event) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources (default: nothing to do)."""


class NullSink(EventSink):
    """Discards every event."""

    def emit(self, event: Event) -> None:
        pass


class MemorySink(EventSink):
    """Keeps events in a bounded list; excess events are counted, not kept."""

    def __init__(self, max_events: Optional[int] = None) -> None:
        self._max_events = max_events
        self._events: List[Event] = []
        self.dropped = 0

    def emit(self, event: Event) -> None:
        if self._max_events is not None and len(self._events) >= self._max_events:
            self.dropped += 1
            return
        self._events.append(event)

    @property
    def events(self) -> List[Event]:
        """All captured events in emission order (a copy)."""
        return list(self._events)

    def clear(self) -> None:
        """Drop everything captured so far."""
        self._events.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._events)


class JsonlSink(EventSink):
    """Streams events to a JSONL file, one object per line.

    The first line is a header ``{"schema": ..., "kind": "header",
    "manifest": ...}``; every further line is one event.  Writes are
    line-buffered so a killed run loses at most the line being written.
    """

    def __init__(
        self,
        path: Union[str, pathlib.Path],
        manifest: Optional[dict] = None,
        extra: Optional[dict] = None,
    ) -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: Optional[TextIO] = self.path.open("w")
        header = {"schema": EVENT_SCHEMA, "kind": "header"}
        if manifest is not None:
            header["manifest"] = manifest
        self._extra = dict(extra) if extra else {}
        self._write(header)

    def _write(self, payload: dict) -> None:
        if self._handle is None:
            raise ConfigurationError(f"JSONL sink {self.path} is closed")
        self._handle.write(json.dumps(payload, sort_keys=True) + "\n")

    def emit(self, event: Event) -> None:
        body = event.to_dict()
        if self._extra:
            body.update(self._extra)
        self._write(body)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class EventBus:
    """Fans emitted events out to sinks, optionally filtered by kind."""

    def __init__(
        self,
        sinks: Sequence[EventSink],
        kinds: Optional[Iterable[str]] = None,
    ) -> None:
        self._sinks = list(sinks)
        self._kinds = set(kinds) if kinds is not None else None

    def emit(self, time: Time, kind: str, /, **payload: Any) -> None:
        """Build one event and deliver it to every sink.

        ``time`` and ``kind`` are positional-only, so a payload may carry
        its own ``kind`` (a ``fault_injected`` event names the fault's).
        """
        if self._kinds is not None and kind not in self._kinds:
            return
        event = Event(time=time, kind=kind, payload=payload)
        for sink in self._sinks:
            sink.emit(event)

    def wants(self, kind: str) -> bool:
        """Whether events of ``kind`` pass the filter."""
        return self._kinds is None or kind in self._kinds

    def close(self) -> None:
        """Close every sink."""
        for sink in self._sinks:
            sink.close()


def read_jsonl(
    path: Union[str, pathlib.Path],
) -> Tuple[dict, List[Event]]:
    """Load a :class:`JsonlSink` file back into ``(header, events)``.

    Raises :class:`~repro.errors.ConfigurationError` on a missing or
    incompatible header; a torn trailing line (killed mid-write) is
    dropped.
    """
    lines = pathlib.Path(path).read_text().splitlines()
    if not lines:
        raise ConfigurationError(f"event file {path} is empty")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError:
        header = None
    if not isinstance(header, dict) or header.get("schema") != EVENT_SCHEMA:
        raise ConfigurationError(
            f"event file {path} has an unsupported header (expected schema "
            f"{EVENT_SCHEMA})"
        )
    events = []
    for line in lines[1:]:
        try:
            body = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn trailing line
        if isinstance(body, dict) and "kind" in body and "time" in body:
            events.append(Event.from_dict(body))
    return header, events
