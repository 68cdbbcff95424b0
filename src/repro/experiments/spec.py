"""Declarative sweep specs: a whole sweep as one ``repro run`` input.

A :class:`SweepSpec` is a plain, JSON/YAML-loadable description of a
family of experiment runs: which registered experiments, at which scale,
over which master seeds, under which fault/loss/traffic/adversary
overlays.  Any sweep a ``repro run`` invocation can express (and grids
thereof) is one schema-validated document that ``repro run SPEC`` runs
and ``repro calibrate SPEC`` turns into a baseline pack.  How a sweep
runs (workers, checkpoints, timeouts, output files) stays with the
``repro run`` flags.

Specs are **fingerprinted**: a stable hash over exactly the fields that
decide simulation outcomes (experiments, scale, runs, seeds, overlays —
*not* the name or description).  Two specs with equal fingerprints
describe the same logical sweep, so the fingerprint keys baseline packs
and rides in the run manifest.

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
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.experiments.config import DEFAULT_MASTER_SEED, PAPER, QUICK, Scale
from repro.experiments.runner import OVERLAY_KEYS, SPEC_OVERLAYS, overlay_fields

__all__ = [
    "SPEC_SCHEMA",
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
        "baseline_pack",
    }
)

#: keys a spec no longer takes, and what replaces each.
_RETIRED_KEYS = {
    "limits": "the --workers, --task-timeout and --task-retries flags",
    "outputs": "the --metrics-out, --trace-out and --svg-dir flags",
    "priority": "nothing: units run in the order the spec expands them",
}


@dataclass(frozen=True)
class SweepUnit:
    """A single experiment sweep: one cell of a spec's grid, or one
    experiment id of a ``repro run`` flag run (labelled by that id)."""

    experiment_id: str
    #: the scale tier, before the ``runs`` override.
    base_scale: Scale
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
        scale = self.base_scale
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
    baseline_pack: Optional[str] = None
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
            "baseline_pack": self.baseline_pack,
        }

    def fingerprint(self) -> str:
        """A stable 16-hex-digit hash of the result-shaping fields.

        The name, description and baseline pack are excluded — they
        label or check a sweep, never change what its reports contain.
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
                            base_scale=SCALES[self.scale_name],
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


def spec_from_dict(payload: Dict[str, Any]) -> SweepSpec:
    """Validate a plain dict into a :class:`SweepSpec`.

    Unknown keys, malformed overlay specs, unregistered experiment ids,
    and out-of-range numbers all raise
    :class:`~repro.errors.ConfigurationError` before any unit runs, so a
    long sweep cannot die hours in on an argument typo.
    """
    if not isinstance(payload, dict):
        _fail(f"spec must be a mapping, got {type(payload).__name__}")
    for key in sorted(set(payload) & set(_RETIRED_KEYS)):
        _fail(f"{key!r} is no longer a spec key; use {_RETIRED_KEYS[key]}")
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
        baseline_pack=baseline_pack,
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
