"""Declarative scenario/sweep specs: the service layer's input language.

A :class:`SweepSpec` is a plain, JSON/YAML-loadable description of a
family of experiment runs: which registered experiments, at which scale,
over which master seeds, under which fault/loss/traffic/adversary
overlays, with which resource limits.  It replaces per-experiment
argument plumbing — any sweep a ``repro run`` invocation can express
(and grids thereof) is one schema-validated document that can be
submitted to the job queue, calibrated into a baseline pack, and
exported inside a result bundle.

Specs are **fingerprinted**: a stable hash over exactly the fields that
decide simulation outcomes (experiments, scale, runs, seeds, overlays —
*not* limits, outputs, or cosmetic fields).  Two specs with equal
fingerprints describe the same logical sweep, so the fingerprint keys
baseline packs and rides in every exported bundle's manifest.

Overlay values may be lists, which become **grid axes**: the spec
expands into the cartesian product of experiments x seeds x overlay
grids, one :class:`SweepUnit` per cell.  Expansion order is
deterministic (experiments, then seeds, then axes in canonical overlay
order), so unit labels are stable across machines and reruns.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import pathlib
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.experiments.config import DEFAULT_MASTER_SEED, PAPER, QUICK, Scale
from repro.experiments.runner import OVERLAY_KEYS, SPEC_OVERLAYS, overlay_fields

__all__ = [
    "SPEC_SCHEMA",
    "SweepLimits",
    "SweepOutputs",
    "SweepUnit",
    "SweepSpec",
    "spec_from_dict",
    "load_spec",
]

#: bumped when the spec layout changes incompatibly.
SPEC_SCHEMA = 1

#: the scales a spec may name.
SCALES: Dict[str, Scale] = {"quick": QUICK, "paper": PAPER}

#: overlay keys that take a spec string.
_SPEC_KEYS = frozenset({"faults", *SPEC_OVERLAYS})

#: overlay keys whose values may be lists (grid axes).
_GRID_KEYS = _SPEC_KEYS | {"route_ttl"}

_TOP_KEYS = frozenset(
    {
        "schema",
        "name",
        "description",
        "experiments",
        "scale",
        "runs",
        "seeds",
        "overlays",
        "limits",
        "outputs",
        "baseline_pack",
        "priority",
    }
)


@dataclass(frozen=True)
class SweepLimits:
    """Resource limits for executing one spec (not fingerprinted)."""

    workers: int = 1
    task_timeout: Optional[float] = None
    task_retries: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "workers": self.workers,
            "task_timeout": self.task_timeout,
            "task_retries": self.task_retries,
        }


@dataclass(frozen=True)
class SweepOutputs:
    """Which optional artifacts a job writes besides its reports."""

    metrics: bool = False
    trace: bool = False
    svg: bool = False

    def to_dict(self) -> dict:
        return {"metrics": self.metrics, "trace": self.trace, "svg": self.svg}


@dataclass(frozen=True)
class SweepUnit:
    """One expanded cell of a spec's grid: a single experiment sweep."""

    experiment_id: str
    scale_name: str
    runs: Optional[int]
    seed: int
    #: scalar overlay values for this cell, canonical key order.
    overlays: Tuple[Tuple[str, Any], ...]
    #: stable slug naming this unit's report directory.
    label: str

    @property
    def overlay_dict(self) -> Dict[str, Any]:
        return dict(self.overlays)

    def scale(self) -> Scale:
        """The concrete :class:`Scale` (runs override applied)."""
        scale = SCALES[self.scale_name]
        if self.runs is not None and self.runs != scale.runs:
            scale = replace(scale, runs=self.runs)
        return scale


@dataclass(frozen=True)
class SweepSpec:
    """A validated, fingerprintable scenario/sweep description."""

    name: str
    experiments: Tuple[str, ...]
    scale_name: str = "quick"
    runs: Optional[int] = None
    seeds: Tuple[int, ...] = (DEFAULT_MASTER_SEED,)
    overlays: Tuple[Tuple[str, Any], ...] = ()
    limits: SweepLimits = field(default_factory=SweepLimits)
    outputs: SweepOutputs = field(default_factory=SweepOutputs)
    baseline_pack: Optional[str] = None
    priority: int = 0
    description: str = ""

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """The normalized JSON-safe form (round-trips via
        :func:`spec_from_dict`)."""
        return {
            "schema": SPEC_SCHEMA,
            "name": self.name,
            "description": self.description,
            "experiments": list(self.experiments),
            "scale": self.scale_name,
            "runs": self.runs,
            "seeds": list(self.seeds),
            "overlays": {
                key: (list(value) if isinstance(value, tuple) else value)
                for key, value in self.overlays
            },
            "limits": self.limits.to_dict(),
            "outputs": self.outputs.to_dict(),
            "baseline_pack": self.baseline_pack,
            "priority": self.priority,
        }

    def fingerprint(self) -> str:
        """A stable 16-hex-digit hash of the result-shaping fields.

        Limits, outputs, priority, name and description are excluded —
        they change how (or how visibly) a sweep runs, never what its
        reports contain.
        """
        payload = json.dumps(
            {
                "schema": SPEC_SCHEMA,
                "experiments": list(self.experiments),
                "scale": self.scale_name,
                "runs": self.runs,
                "seeds": list(self.seeds),
                "overlays": [
                    [key, list(value) if isinstance(value, tuple) else value]
                    for key, value in self.overlays
                ],
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    # ------------------------------------------------------------------
    # Grid expansion
    # ------------------------------------------------------------------

    def grid_axes(self) -> List[Tuple[str, List[Any]]]:
        """The overlay keys that fan out, with their value lists."""
        return [
            (key, list(value))
            for key, value in self.overlays
            if isinstance(value, tuple)
        ]

    def expand(self) -> List[SweepUnit]:
        """Every (experiment, seed, overlay-combination) unit, in order."""
        scalars = [
            (key, value)
            for key, value in self.overlays
            if not isinstance(value, tuple)
        ]
        axes = self.grid_axes()
        combos = list(itertools.product(*(values for _, values in axes))) or [()]
        units: List[SweepUnit] = []
        for experiment_id in self.experiments:
            for seed in self.seeds:
                for index, combo in enumerate(combos):
                    cell = dict(scalars)
                    for (key, _), value in zip(axes, combo):
                        cell[key] = value
                    ordered = tuple(
                        (key, cell[key]) for key in OVERLAY_KEYS if key in cell
                    )
                    label = f"{experiment_id}-s{seed}"
                    if len(combos) > 1:
                        label += f"-g{index}"
                    units.append(
                        SweepUnit(
                            experiment_id=experiment_id,
                            scale_name=self.scale_name,
                            runs=self.runs,
                            seed=seed,
                            overlays=ordered,
                            label=label,
                        )
                    )
        return units


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------


def _fail(message: str) -> None:
    raise ConfigurationError(f"invalid sweep spec: {message}")


def _check_overlay_value(key: str, value: Any) -> Any:
    """Validate one scalar overlay value by parsing it like the CLI would."""
    if key in _SPEC_KEYS:
        if not isinstance(value, str) or not value:
            _fail(f"overlay {key!r} takes a non-empty spec string, got {value!r}")
        try:
            overlay_fields({key: value})
        except Exception as error:
            _fail(f"overlay {key!r} spec {value!r} does not parse: {error}")
    elif key == "route_ttl":
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            _fail(f"overlay 'route_ttl' takes an int >= 1, got {value!r}")
    elif key in ("quarantine", "check_invariants"):
        if not isinstance(value, bool):
            _fail(f"overlay {key!r} takes a boolean, got {value!r}")
    return value


def _normalize_overlays(payload: Any) -> Tuple[Tuple[str, Any], ...]:
    if payload is None:
        return ()
    if not isinstance(payload, dict):
        _fail(f"'overlays' must be a mapping, got {type(payload).__name__}")
    unknown = set(payload) - set(OVERLAY_KEYS)
    if unknown:
        _fail(
            f"unknown overlay key(s) {sorted(unknown)}; "
            f"valid: {', '.join(OVERLAY_KEYS)}"
        )
    normalized: List[Tuple[str, Any]] = []
    for key in OVERLAY_KEYS:
        if key not in payload:
            continue
        value = payload[key]
        if isinstance(value, list):
            if key not in _GRID_KEYS:
                _fail(f"overlay {key!r} cannot be a grid axis (list)")
            if not value:
                _fail(f"overlay {key!r} grid axis is empty")
            normalized.append(
                (key, tuple(_check_overlay_value(key, v) for v in value))
            )
        else:
            normalized.append((key, _check_overlay_value(key, value)))
    return tuple(normalized)


def _normalize_limits(payload: Any) -> SweepLimits:
    if payload is None:
        return SweepLimits()
    if not isinstance(payload, dict):
        _fail(f"'limits' must be a mapping, got {type(payload).__name__}")
    unknown = set(payload) - {"workers", "task_timeout", "task_retries"}
    if unknown:
        _fail(f"unknown limits key(s) {sorted(unknown)}")
    workers = payload.get("workers", 1)
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        _fail(f"limits.workers must be an int >= 1, got {workers!r}")
    timeout = payload.get("task_timeout")
    if timeout is not None and (
        not isinstance(timeout, (int, float)) or isinstance(timeout, bool) or timeout <= 0
    ):
        _fail(f"limits.task_timeout must be > 0, got {timeout!r}")
    retries = payload.get("task_retries")
    if retries is not None and (
        not isinstance(retries, int) or isinstance(retries, bool) or retries < 0
    ):
        _fail(f"limits.task_retries must be >= 0, got {retries!r}")
    return SweepLimits(
        workers=workers,
        task_timeout=None if timeout is None else float(timeout),
        task_retries=retries,
    )


def _normalize_outputs(payload: Any) -> SweepOutputs:
    if payload is None:
        return SweepOutputs()
    if not isinstance(payload, dict):
        _fail(f"'outputs' must be a mapping, got {type(payload).__name__}")
    unknown = set(payload) - {"metrics", "trace", "svg"}
    if unknown:
        _fail(f"unknown outputs key(s) {sorted(unknown)}")
    for key in ("metrics", "trace", "svg"):
        if key in payload and not isinstance(payload[key], bool):
            _fail(f"outputs.{key} must be a boolean, got {payload[key]!r}")
    return SweepOutputs(
        metrics=payload.get("metrics", False),
        trace=payload.get("trace", False),
        svg=payload.get("svg", False),
    )


def spec_from_dict(payload: Dict[str, Any]) -> SweepSpec:
    """Validate a plain dict into a :class:`SweepSpec`.

    Unknown keys, malformed overlay specs, unregistered experiment ids,
    and out-of-range numbers all raise
    :class:`~repro.errors.ConfigurationError` *at submit time*, so a
    queued job can no longer die hours later on an argument typo.
    """
    if not isinstance(payload, dict):
        _fail(f"spec must be a mapping, got {type(payload).__name__}")
    unknown = set(payload) - _TOP_KEYS
    if unknown:
        _fail(f"unknown key(s) {sorted(unknown)}; valid: {sorted(_TOP_KEYS)}")
    schema = payload.get("schema", SPEC_SCHEMA)
    if schema != SPEC_SCHEMA:
        _fail(f"unsupported schema {schema!r} (expected {SPEC_SCHEMA})")

    name = payload.get("name")
    if not isinstance(name, str) or not name:
        _fail("'name' is required and must be a non-empty string")
    if not all(ch.isalnum() or ch in "-_." for ch in name):
        _fail(f"'name' must be a slug ([a-zA-Z0-9._-]), got {name!r}")

    experiments = payload.get("experiments")
    if not isinstance(experiments, list) or not experiments:
        _fail("'experiments' is required and must be a non-empty list of ids")
    from repro.experiments.registry import get_experiment

    for experiment_id in experiments:
        get_experiment(experiment_id)  # raises with valid ids listed
    if len(set(experiments)) != len(experiments):
        _fail("'experiments' contains duplicate ids")

    scale_name = payload.get("scale", "quick")
    if scale_name not in SCALES:
        _fail(f"'scale' must be one of {sorted(SCALES)}, got {scale_name!r}")

    runs = payload.get("runs")
    if runs is not None and (
        not isinstance(runs, int) or isinstance(runs, bool) or runs < 1
    ):
        _fail(f"'runs' must be an int >= 1, got {runs!r}")

    seeds = payload.get("seeds", [DEFAULT_MASTER_SEED])
    if not isinstance(seeds, list) or not seeds:
        _fail("'seeds' must be a non-empty list of ints")
    for seed in seeds:
        if not isinstance(seed, int) or isinstance(seed, bool):
            _fail(f"'seeds' entries must be ints, got {seed!r}")
    if len(set(seeds)) != len(seeds):
        _fail("'seeds' contains duplicates")

    priority = payload.get("priority", 0)
    if not isinstance(priority, int) or isinstance(priority, bool):
        _fail(f"'priority' must be an int, got {priority!r}")

    baseline_pack = payload.get("baseline_pack")
    if baseline_pack is not None and (
        not isinstance(baseline_pack, str) or not baseline_pack
    ):
        _fail(f"'baseline_pack' must be a non-empty path string, got {baseline_pack!r}")

    description = payload.get("description", "")
    if not isinstance(description, str):
        _fail(f"'description' must be a string, got {description!r}")

    return SweepSpec(
        name=name,
        experiments=tuple(experiments),
        scale_name=scale_name,
        runs=runs,
        seeds=tuple(seeds),
        overlays=_normalize_overlays(payload.get("overlays")),
        limits=_normalize_limits(payload.get("limits")),
        outputs=_normalize_outputs(payload.get("outputs")),
        baseline_pack=baseline_pack,
        priority=priority,
        description=description,
    )


def load_spec(path: Union[str, pathlib.Path]) -> SweepSpec:
    """Load and validate a spec from a ``.json``/``.yaml``/``.yml`` file."""
    path = pathlib.Path(path)
    try:
        text = path.read_text()
    except OSError as error:
        raise ConfigurationError(f"cannot read spec {path}: {error}") from None
    if path.suffix.lower() in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError:  # pragma: no cover - yaml ships with the image
            raise ConfigurationError(
                f"spec {path} is YAML but PyYAML is unavailable; use JSON"
            ) from None
        try:
            payload = yaml.safe_load(text)
        except yaml.YAMLError as error:
            raise ConfigurationError(f"spec {path} is not valid YAML: {error}") from None
    else:
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"spec {path} is not valid JSON: {error}") from None
    return spec_from_dict(payload)
