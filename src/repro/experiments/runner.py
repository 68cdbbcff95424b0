"""Multi-run experiment execution.

Runs a dictionary of named *variants* (agent/protocol configurations)
over ``runs`` seeded repetitions, reproducing the paper's randomness
model exactly: **one network per experiment** — "we chose a single
connected network … for all experiments" (mapping, §II-B.1) and "all of
our experiments were performed with the same configuration and movement
path of nodes" (routing, §III-A) — with only the agents' initial
placement and tie-breaking redrawn per repetition.  The shared network
is derived from the master seed, so a different master seed yields a
different (but again shared) network; results are aggregated with
:mod:`repro.analysis.stats`.

Static mapping topologies are cached per ``(generator config, seed)``
because they are immutable during default runs and expensive to
generate; MANETs mutate every step, so every variant and repetition
copies one immutable blueprint of the shared MANET
(:func:`~repro.net.generator.manet_blueprint`, drawn once per
``(generator config, seed)``), which gives each run the identical
placement and movement paths in a network of its own.  Faulted mapping
runs bypass the cache — a crash mutates the topology, which must never
leak between runs.

The runner is hardened for paper-scale sweeps:

* a per-task **timeout** with bounded **retry** (the ``task_timeout`` /
  ``task_retries`` fields of :class:`RunDefaults`).  In pool mode the timeout doubles as crash
  detection: ``multiprocessing.Pool`` respawns a worker that dies hard
  (segfault, ``os._exit``) but silently never completes the job it was
  carrying, so an overdue task is abandoned and resubmitted;
* permanent failures are collected, not fatal mid-sweep — every other
  task still completes and is reported before :class:`ExperimentError`
  is raised;
* optional **checkpointing** (``checkpoint_dir``): completed
  ``(variant, run)`` results are journalled through
  :class:`~repro.experiments.persistence.SweepCheckpoint`, so a killed
  sweep re-run with the same command resumes instead of restarting.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import hashlib
import multiprocessing
import pathlib
import time
import typing
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Mapping, NamedTuple, Optional, Tuple, Union

from repro.analysis.series import TimeSeries, average_series
from repro.analysis.stats import RunSummary, summarize
from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.config import DEFAULT_MASTER_SEED
from repro.experiments.persistence import (
    SweepCheckpoint,
    result_from_dict,
    result_to_dict,
)
from repro.faults.plan import AdversarySpec, FaultPlan, parse_fault_plan
from repro.mapping.world import MappingResult, MappingWorld, MappingWorldConfig
from repro.net.channel import ChannelConfig
from repro.net.generator import (
    GeneratorConfig,
    LruCache,
    NetworkGenerator,
    clear_blueprint_cache,
    manet_blueprint,
)
from repro.net.health import HealthConfig
from repro.net.topology import Topology
from repro.obs.collector import ObsConfig
from repro.obs.output import ObsAccumulator
from repro.routing.table import TableGuard
from repro.routing.world import RoutingResult, RoutingWorld, RoutingWorldConfig
from repro.rng import derive_seed
from repro.traffic.plane import TrafficConfig

__all__ = [
    "MappingVariantResult",
    "RoutingVariantResult",
    "OVERLAY_KEYS",
    "SPEC_OVERLAYS",
    "RunDefaults",
    "current_defaults",
    "defaults_scope",
    "overlay_fields",
    "parse_spec",
    "run_mapping_variants",
    "run_routing_variants",
    "clear_topology_cache",
]

#: most static topologies kept alive at once; a sweep touches one or two,
#: so a small LRU bounds memory without ever evicting the working set.
TOPOLOGY_CACHE_LIMIT = 8

_topology_cache = LruCache(TOPOLOGY_CACHE_LIMIT)


def clear_topology_cache() -> None:
    """Drop all cached static topologies and MANET blueprints."""
    _topology_cache.clear()
    clear_blueprint_cache()


def _static_topology(config: GeneratorConfig, seed: int, reusable: bool) -> Topology:
    """A static mapping network, cached (LRU) when it will not be mutated."""
    build = NetworkGenerator(config, seed).generate_static
    return _topology_cache.fetch((config, seed), build) if reusable else build()


@dataclass
class MappingVariantResult:
    """Aggregated mapping outcomes of one variant over all runs."""

    name: str
    results: List[MappingResult] = field(default_factory=list)

    @property
    def finishing_times(self) -> List[Optional[int]]:
        """Each run's finishing time (``None`` where it did not finish)."""
        return [result.finishing_time for result in self.results]

    @property
    def finished_runs(self) -> int:
        """How many runs reached perfect knowledge within max_steps."""
        return sum(1 for t in self.finishing_times if t is not None)

    @property
    def finishing_summary(self) -> RunSummary:
        """Summary of finishing times over *finished* runs.

        Unfinished runs are counted at their step budget — a conservative
        lower bound that keeps slow variants comparable instead of
        silently dropping their worst runs.
        """
        values = [
            float(t) if t is not None else float(r.steps_simulated)
            for t, r in zip(self.finishing_times, self.results)
        ]
        return summarize(values)

    def average_knowledge_series(self) -> TimeSeries:
        """Mean team-average-knowledge curve across runs."""
        return average_series(
            [TimeSeries(r.times, r.average_knowledge) for r in self.results]
        )


@dataclass
class RoutingVariantResult:
    """Aggregated routing outcomes of one variant over all runs."""

    name: str
    results: List[RoutingResult] = field(default_factory=list)

    @property
    def connectivity_summary(self) -> RunSummary:
        """Summary of per-run converged mean connectivity."""
        return summarize([r.mean_connectivity for r in self.results])

    @property
    def stability_summary(self) -> RunSummary:
        """Summary of per-run connectivity standard deviation."""
        return summarize([r.connectivity_stability for r in self.results])

    def connectivity_series(self) -> TimeSeries:
        """Mean connectivity-over-time curve across runs."""
        return average_series(
            [TimeSeries(r.times, r.connectivity) for r in self.results]
        )


ProgressCallback = Callable[[str, int, int], None]

#: how often the pool loop checks for finished or overdue tasks.
_POLL_INTERVAL = 0.02


@dataclass(frozen=True)
class RunDefaults:
    """Every run-shaping default a sweep call can inherit.

    One frozen instance describes one sweep unit: ``repro run`` builds
    one per unit from its execution flags and the unit's overlays (its
    flags, or a sweep spec's grid cell) and activates it with
    :func:`defaults_scope` for exactly that unit's sweeps.  Outside any
    scope the pristine ``RunDefaults()`` applies, so no run's overlays
    outlive it.
    """

    #: process-pool size used when a call does not pass ``workers``.
    workers: int = 1
    #: fault plan applied to every variant that has none of its own.
    fault_plan: Optional[FaultPlan] = None
    #: channel config applied to every variant that has none of its own.
    channel: Optional[ChannelConfig] = None
    #: route TTL forced onto every routing variant when set.
    route_ttl: Optional[int] = None
    #: invariant-checking override for variants that leave it unset.
    check_invariants: Optional[bool] = None
    #: where sweep checkpoints live when a call passes none.
    checkpoint_dir: Optional[pathlib.Path] = None
    #: per-task deadline in seconds (``None`` = unlimited) and how many
    #: retries a failed or overdue task gets before counting permanent.
    task_timeout: Optional[float] = None
    task_retries: int = 1
    #: observability config applied to variants that carry none, and the
    #: accumulator completed runs report into, in canonical (variant, run)
    #: order so serial and pooled sweeps merge identically.
    obs: Optional[ObsConfig] = None
    obs_accumulator: Optional[ObsAccumulator] = None
    #: traffic config applied to every variant that has none of its own.
    traffic: Optional[TrafficConfig] = None
    #: health-monitor config applied to variants that carry none.
    health: Optional[HealthConfig] = None
    #: table-write guard applied to routing variants that carry none.
    table_guard: Optional[TableGuard] = None
    #: adversary spec materialized into a seeded fault plan for variants
    #: that carry no plan of their own.
    adversary: Optional[AdversarySpec] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")
        if self.route_ttl is not None and self.route_ttl < 1:
            raise ConfigurationError(f"route ttl must be >= 1, got {self.route_ttl}")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ConfigurationError(
                f"task timeout must be > 0, got {self.task_timeout}"
            )
        if self.task_retries < 0:
            raise ConfigurationError(
                f"task retries must be >= 0, got {self.task_retries}"
            )


#: the defaults scoped by :func:`defaults_scope`; the pristine
#: ``RunDefaults()`` outside any scope.
_SCOPED_DEFAULTS: "contextvars.ContextVar[RunDefaults]" = contextvars.ContextVar(
    "repro_run_defaults", default=RunDefaults()
)


def current_defaults() -> RunDefaults:
    """The defaults active in this context (scoped if any, else pristine)."""
    return _SCOPED_DEFAULTS.get()


@contextlib.contextmanager
def defaults_scope(defaults: RunDefaults) -> Iterator[RunDefaults]:
    """Activate ``defaults`` for the enclosed block (and this thread only).

    Backed by a :class:`contextvars.ContextVar`, so sweeps on other
    threads of the process keep their own overlays, and nothing is left
    behind once the block exits.
    """
    token = _SCOPED_DEFAULTS.set(defaults)
    try:
        yield defaults
    finally:
        _SCOPED_DEFAULTS.reset(token)


#: every overlay key ``repro run`` and a sweep spec take, in canonical
#: (expansion) order; the CLI has one flag per key.
OVERLAY_KEYS: Tuple[str, ...] = (
    "faults",
    "loss",
    "traffic",
    "adversary",
    "route_ttl",
    "quarantine",
    "check_invariants",
)


class SpecOverlay(NamedTuple):
    """One ``key=value`` spec overlay: what it sets and how it reads."""

    #: the :class:`RunDefaults` field it sets (and the spec's name in errors).
    field: str
    #: the frozen config class the spec builds.
    cls: type
    #: the field a bare number sets.
    bare: str
    #: short keys and the fields they set; every field name is a key too.
    keys: Mapping[str, str]


#: the string overlays :func:`parse_spec` reads (``faults`` has its own DSL).
SPEC_OVERLAYS: Dict[str, SpecOverlay] = {
    "loss": SpecOverlay("channel", ChannelConfig, "loss", {
        "fixed": "loss",
        "distance": "distance_factor",
        "exponent": "distance_exponent",
        "exp": "distance_exponent",
        "battery": "battery_factor",
        "retries": "hop_retries",
        "backoff": "backoff_base",
        "cap": "backoff_cap",
    }),
    "traffic": SpecOverlay("traffic", TrafficConfig, "rate", {
        "burst": "burst_size",
        "every": "burst_every",
        "cap": "queue_capacity",
        "queue_cap": "queue_capacity",
        "policy": "queue_policy",
        "ttl": "payload_ttl",
        "retries": "max_retransmit",
        "backoff": "backoff_base",
        "budget": "forward_budget",
        "fanout": "epidemic_fanout",
        "copies": "spray_copies",
        "priorities": "priority_levels",
    }),
    "adversary": SpecOverlay("adversary", AdversarySpec, "gray_fraction", {
        "gray": "gray_fraction",
        "fraction": "gray_fraction",
        "rate": "gray_rate",
        "corrupt": "corrupt_agents",
        "flap": "flap_nodes",
    }),
}


def _cast(hint: Any, text: str) -> Any:
    """``text`` as a value of field type ``hint`` (``Optional[X]`` as ``X``)."""
    if typing.get_origin(hint) is Union:
        (hint,) = (arg for arg in typing.get_args(hint) if arg is not type(None))
    return hint(text)


def parse_spec(cls: type, text: str) -> Any:
    """Parse a ``--loss``, ``--traffic`` or ``--adversary`` spec into ``cls``.

    A bare number sets the overlay's bare field (``--loss 0.2``); the
    long form is comma-separated ``key=value`` pairs, each key a short
    key of :data:`SPEC_OVERLAYS` or a field name of ``cls``, each value
    cast by that field's type (so an ``int`` field rejects ``2.7``)::

        fixed=0.1,distance=0.3,retries=4          (ChannelConfig)
        rate=0.5,router=epidemic,cap=8,ttl=40     (TrafficConfig)
        gray=0.2,corrupt=2,start=10               (AdversarySpec)

    Raises :class:`~repro.errors.ConfigurationError` on malformed input.
    """
    overlay = next(entry for entry in SPEC_OVERLAYS.values() if entry.cls is cls)
    what = overlay.field
    hints = typing.get_type_hints(cls)
    text = text.strip()
    if not text:
        raise ConfigurationError(f"empty {what} spec")
    try:
        return cls(**{overlay.bare: _cast(hints[overlay.bare], text)})
    except ValueError:
        pass
    keys = {spec.name: spec.name for spec in dataclasses.fields(cls)}
    keys.update(overlay.keys)
    kwargs: Dict[str, Any] = {}
    for raw_pair in text.split(","):
        pair = raw_pair.strip()
        if not pair:
            continue
        name, separator, value = pair.partition("=")
        if not separator:
            raise ConfigurationError(
                f"malformed {what} spec segment {pair!r}; expected 'key=value'"
            )
        target = keys.get(name.strip())
        if target is None:
            raise ConfigurationError(
                f"unknown {what} spec key {name.strip()!r}; "
                f"expected one of {sorted(keys)}"
            )
        try:
            kwargs[target] = _cast(hints[target], value.strip())
        except ValueError:
            raise ConfigurationError(
                f"malformed {what} spec value in {pair!r}"
            ) from None
    return cls(**kwargs)


def overlay_fields(overlays: Mapping[str, Any]) -> Dict[str, Any]:
    """Parse the overlays ``repro run`` flags and sweep specs share into
    :class:`RunDefaults` field values.

    Keys are :data:`OVERLAY_KEYS`: the spec strings ``faults`` (the
    fault DSL) and ``loss``, ``traffic`` and ``adversary``
    (:func:`parse_spec`), the ``quarantine`` flag (health monitoring
    plus table guards), ``route_ttl`` and ``check_invariants``.  Absent
    and ``None`` entries, empty spec strings and a false ``quarantine``
    leave their fields unset.
    """
    fields: Dict[str, Any] = {}
    if overlays.get("faults"):
        fields["fault_plan"] = parse_fault_plan(overlays["faults"])
    for key, overlay in SPEC_OVERLAYS.items():
        if overlays.get(key):
            fields[overlay.field] = parse_spec(overlay.cls, overlays[key])
    if overlays.get("quarantine"):
        fields["health"] = HealthConfig()
        fields["table_guard"] = TableGuard()
    for key in ("route_ttl", "check_invariants"):
        if overlays.get(key) is not None:
            fields[key] = overlays[key]
    return fields


def _resolve_workers(workers: Optional[int]) -> int:
    if workers is None:
        workers = current_defaults().workers
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    # Cap at the machine's core count, but never below 2 so the pool code
    # path stays reachable (and testable) on single-core machines.
    return min(workers, max(2, multiprocessing.cpu_count()))


def _with_run_defaults(
    variants: Dict[str, Any],
    generator_config: Optional[GeneratorConfig] = None,
    master_seed: int = 0,
) -> Dict[str, Any]:
    """Overlay the active :class:`RunDefaults` onto every variant config.

    Fault plan, channel, invariant checking, health monitoring, and the
    table guard fill only unset fields (a variant's own choice wins);
    the route TTL, when set, replaces the variant's value — overriding
    it is the flag's whole purpose.  An adversary spec is materialized
    into a seeded fault plan per variant (gateways excluded as victims)
    when neither the variant nor ``--faults`` supplied a plan.
    """
    defaults = current_defaults()
    adjusted = {}
    for name, config in variants.items():
        changes: Dict[str, Any] = {}
        if defaults.fault_plan is not None and config.fault_plan is None:
            changes["fault_plan"] = defaults.fault_plan
        elif (
            defaults.adversary is not None
            and config.fault_plan is None
            and generator_config is not None
        ):
            changes["fault_plan"] = FaultPlan.random_adversary(
                master_seed,
                defaults.adversary,
                node_count=generator_config.node_count,
                population=config.population,
                exclude=tuple(range(generator_config.gateway_count)),
            )
        if defaults.channel is not None and config.channel is None:
            changes["channel"] = defaults.channel
        if (
            defaults.check_invariants is not None
            and config.check_invariants is None
        ):
            changes["check_invariants"] = defaults.check_invariants
        if defaults.route_ttl is not None and hasattr(config, "route_ttl"):
            changes["route_ttl"] = defaults.route_ttl
        if defaults.obs is not None and config.obs is None:
            changes["obs"] = defaults.obs
        if defaults.traffic is not None and config.traffic is None:
            changes["traffic"] = defaults.traffic
        if defaults.health is not None and config.health is None:
            changes["health"] = defaults.health
        if (
            defaults.table_guard is not None
            and hasattr(config, "table_guard")
            and config.table_guard is None
        ):
            changes["table_guard"] = defaults.table_guard
        adjusted[name] = dataclasses.replace(config, **changes) if changes else config
    return adjusted


def _sweep_fingerprint(
    scenario: str,
    master_seed: int,
    generator_config: GeneratorConfig,
    variants: Dict[str, Any],
) -> str:
    """A stable hash of everything that decides a task's outcome.

    ``runs`` is deliberately excluded: run seeds depend only on the run
    index, so the checkpoint of an interrupted ``runs=2`` sweep validly
    seeds a later ``runs=3`` one.
    """
    payload = repr(
        (
            scenario,
            master_seed,
            generator_config,
            sorted((name, repr(config)) for name, config in variants.items()),
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _open_checkpoint(
    checkpoint_dir: Union[str, pathlib.Path, None],
    scenario: str,
    master_seed: int,
    generator_config: GeneratorConfig,
    variants: Dict[str, Any],
) -> Optional[SweepCheckpoint]:
    directory = (
        checkpoint_dir
        if checkpoint_dir is not None
        else current_defaults().checkpoint_dir
    )
    if directory is None:
        return None
    fingerprint = _sweep_fingerprint(scenario, master_seed, generator_config, variants)
    path = pathlib.Path(directory) / f"{scenario}-{fingerprint}.jsonl"
    return SweepCheckpoint(path, scenario, fingerprint)


def _mapping_task(
    task: Tuple[str, GeneratorConfig, MappingWorldConfig, int, int, int]
) -> Tuple[str, int, MappingResult]:
    """One (variant, run) mapping execution — top-level for pickling."""
    name, generator_config, world_config, network_seed, world_seed, run_index = task
    # Degradation *and* fault plans mutate the topology mid-run; such
    # runs must build their own copy, never a shared cached one.
    reusable = world_config.degrade_at is None and world_config.fault_plan is None
    topology = _static_topology(generator_config, network_seed, reusable)
    result = MappingWorld(topology, world_config, world_seed).run()
    return name, run_index, result


def _routing_task(
    task: Tuple[str, GeneratorConfig, RoutingWorldConfig, int, int, int]
) -> Tuple[str, int, RoutingResult]:
    """One (variant, run) routing execution — top-level for pickling."""
    name, generator_config, world_config, network_seed, world_seed, run_index = task
    if world_config.shards is not None:
        # Tiled variants step through the sharded world (bit-identical
        # to the serial path), which copies the same blueprint itself.
        from repro.shard.world import run_sharded_routing

        result = run_sharded_routing(
            generator_config, world_config, network_seed, world_seed
        )
        return name, run_index, result
    topology = manet_blueprint(generator_config, network_seed).topology()
    result = RoutingWorld(topology, world_config, world_seed).run()
    return name, run_index, result


def _describe_task(task: Tuple) -> str:
    return f"{task[0]!r} run {task[5]}"


def _serial_results(
    tasks: List[Tuple],
    task_fn: Callable,
    retries: int,
    failures: List[Tuple[Tuple, str]],
) -> Iterator[Tuple[str, int, Any]]:
    """Run tasks in-process; exceptions retry, then collect as failures."""
    for task in tasks:
        attempt = 0
        while True:
            attempt += 1
            try:
                yield task_fn(task)
                break
            except Exception as error:  # noqa: BLE001 - isolate one bad task
                if attempt <= retries:
                    continue
                failures.append((task, f"{type(error).__name__}: {error}"))
                break


@dataclass
class _Pending:
    """One in-flight pool task plus its deadline and attempt count."""

    task: Tuple
    handle: Any  # multiprocessing.pool.AsyncResult
    attempt: int
    deadline: Optional[float]


def _pool_results(
    tasks: List[Tuple],
    task_fn: Callable,
    workers: int,
    timeout: Optional[float],
    retries: int,
    failures: List[Tuple[Tuple, str]],
) -> Iterator[Tuple[str, int, Any]]:
    """Run tasks on a pool with per-task deadlines and bounded retries.

    ``apply_async`` + polling instead of ``imap_unordered`` because the
    latter cannot time out a single task.  An overdue handle is
    abandoned: either the task is genuinely slow (its stale result will
    be ignored) or its worker died hard — ``Pool`` respawns the process
    but never finishes the job, so the deadline is also the crash
    detector.  One poisoned task can therefore no longer sink the sweep.
    """

    def submit(pool: Any, task: Tuple, attempt: int) -> _Pending:
        handle = pool.apply_async(task_fn, (task,))
        deadline = None if timeout is None else time.monotonic() + timeout
        return _Pending(task, handle, attempt, deadline)

    with multiprocessing.Pool(workers) as pool:
        pending = [submit(pool, task, 1) for task in tasks]
        while pending:
            progressed = False
            still: List[_Pending] = []
            for item in pending:
                if item.handle.ready():
                    progressed = True
                    try:
                        yield item.handle.get()
                    except Exception as error:  # noqa: BLE001 - isolate task
                        if item.attempt <= retries:
                            still.append(submit(pool, item.task, item.attempt + 1))
                        else:
                            failures.append(
                                (item.task, f"{type(error).__name__}: {error}")
                            )
                elif item.deadline is not None and time.monotonic() >= item.deadline:
                    progressed = True
                    if item.attempt <= retries:
                        still.append(submit(pool, item.task, item.attempt + 1))
                    else:
                        failures.append(
                            (
                                item.task,
                                f"no result within {timeout:g}s after "
                                f"{item.attempt} attempt(s) (slow, hung, "
                                "or its worker crashed)",
                            )
                        )
                else:
                    still.append(item)
            pending = still
            if pending and not progressed:
                time.sleep(_POLL_INTERVAL)


def _run_tasks(
    tasks: List[Tuple],
    task_fn: Callable,
    workers: int,
    progress: Optional[ProgressCallback],
    scenario: str,
    checkpoint: Optional[SweepCheckpoint] = None,
    result_type: Optional[type] = None,
    timeout: Optional[float] = None,
    retries: int = 0,
) -> Iterator[Tuple[str, int, Any]]:
    """Execute tasks serially or in a pool; yield completed triples.

    Results are collected unordered and re-sorted by the caller, so
    parallel runs are bit-identical to serial ones.  Checkpointed tasks
    are served from the journal as ``result_type`` results without
    running; fresh completions are journalled before being yielded.
    Permanent failures raise :class:`ExperimentError` only after every
    other task finished, so completed work survives a partially
    poisoned sweep.
    """
    completed = 0
    total = len(tasks)

    def emit(name: str, run_index: int, result: Any) -> Tuple[str, int, Any]:
        nonlocal completed
        completed += 1
        if progress is not None:
            progress(scenario, completed, total)
        return name, run_index, result

    fresh: List[Tuple] = []
    for task in tasks:
        name, run_index = task[0], task[5]
        if checkpoint is not None and (name, run_index) in checkpoint:
            payload = checkpoint.result_payload(name, run_index)
            yield emit(name, run_index, result_from_dict(result_type, payload))
        else:
            fresh.append(task)

    failures: List[Tuple[Tuple, str]] = []
    if workers <= 1:
        source = _serial_results(fresh, task_fn, retries, failures)
    else:
        source = _pool_results(fresh, task_fn, workers, timeout, retries, failures)
    for name, run_index, result in source:
        if checkpoint is not None:
            checkpoint.record(name, run_index, result_to_dict(result))
        yield emit(name, run_index, result)

    if failures:
        kept = "completed runs were kept"
        if checkpoint is not None:
            kept += " and checkpointed"
        details = "; ".join(f"{_describe_task(task)}: {why}" for task, why in failures)
        raise ExperimentError(
            f"{len(failures)} of {total} {scenario} task(s) failed permanently "
            f"({kept}): {details}"
        )


class _Scenario(NamedTuple):
    """What one scenario's sweep runs, journals and aggregates into.

    The sweep functions build theirs per call, so the task functions are
    looked up when a sweep starts.
    """

    name: str
    task: Callable[[Tuple], Tuple[str, int, Any]]
    result: type
    outcome: Callable[[str], Any]


def _run_variants(
    scenario: _Scenario,
    generator_config: GeneratorConfig,
    variants: Dict[str, Any],
    runs: int,
    master_seed: int,
    progress: Optional[ProgressCallback],
    workers: Optional[int],
    checkpoint_dir: Union[str, pathlib.Path, None],
) -> Dict[str, Any]:
    """The sweep body of :func:`run_mapping_variants` and
    :func:`run_routing_variants`.

    Every variant runs ``runs`` times on the network drawn from
    ``{scenario}-net``; run ``i`` of every variant seeds its world from
    ``{scenario}-world:{i}``.  Results are re-sorted into run order per
    variant, so pooled sweeps match serial ones.
    """
    name = scenario.name
    variants = _with_run_defaults(variants, generator_config, master_seed)
    defaults = current_defaults()
    checkpoint = _open_checkpoint(
        checkpoint_dir, name, master_seed, generator_config, variants
    )
    network_seed = derive_seed(master_seed, f"{name}-net")
    tasks = [
        (
            variant,
            generator_config,
            world_config,
            network_seed,
            derive_seed(master_seed, f"{name}-world:{run_index}"),
            run_index,
        )
        for run_index in range(runs)
        for variant, world_config in variants.items()
    ]
    collected: Dict[str, List[Tuple[int, Any]]] = {variant: [] for variant in variants}
    for variant, run_index, result in _run_tasks(
        tasks,
        scenario.task,
        _resolve_workers(workers),
        progress,
        name,
        checkpoint=checkpoint,
        result_type=scenario.result,
        timeout=defaults.task_timeout,
        retries=defaults.task_retries,
    ):
        collected[variant].append((run_index, result))
    accumulator = defaults.obs_accumulator
    outcomes = {}
    for variant, pairs in collected.items():
        pairs.sort(key=lambda pair: pair[0])
        outcome = scenario.outcome(variant)
        for run_index, result in pairs:
            outcome.results.append(result)
            if accumulator is not None:
                accumulator.add(name, variant, run_index, result.obs)
        outcomes[variant] = outcome
    return outcomes


def run_mapping_variants(
    generator_config: GeneratorConfig,
    variants: Dict[str, MappingWorldConfig],
    runs: int,
    master_seed: int = DEFAULT_MASTER_SEED,
    progress: Optional[ProgressCallback] = None,
    workers: Optional[int] = None,
    checkpoint_dir: Union[str, pathlib.Path, None] = None,
) -> Dict[str, MappingVariantResult]:
    """Run every mapping variant ``runs`` times on the shared network.

    ``workers > 1`` fans the (variant, run) grid over a process pool;
    results are identical to a serial run (everything is seed-driven).
    ``checkpoint_dir`` journals completed runs so an interrupted sweep
    resumes; the active :class:`RunDefaults` bound each task's time and
    retries.
    """
    scenario = _Scenario("mapping", _mapping_task, MappingResult, MappingVariantResult)
    return _run_variants(
        scenario, generator_config, variants, runs, master_seed, progress, workers, checkpoint_dir
    )


def run_routing_variants(
    generator_config: GeneratorConfig,
    variants: Dict[str, RoutingWorldConfig],
    runs: int,
    master_seed: int = DEFAULT_MASTER_SEED,
    progress: Optional[ProgressCallback] = None,
    workers: Optional[int] = None,
    checkpoint_dir: Union[str, pathlib.Path, None] = None,
) -> Dict[str, RoutingVariantResult]:
    """Run every routing variant ``runs`` times on the shared MANET.

    MANETs mutate as they run, so every variant and run copies one
    blueprint drawn from the network seed (once per worker process),
    which reproduces the identical placement and movement paths.
    Pooling and checkpointing are as in :func:`run_mapping_variants`.
    """
    scenario = _Scenario("routing", _routing_task, RoutingResult, RoutingVariantResult)
    return _run_variants(
        scenario, generator_config, variants, runs, master_seed, progress, workers, checkpoint_dir
    )
