"""The benchmark's workloads: seeded sweep repetitions and their output checks.

Every workload is a list of *sweeps*, each one call of the public sweep
API (:func:`repro.experiments.runner.run_routing_variants` or
:func:`~repro.experiments.runner.run_mapping_variants`) with ``workers=1``
and no checkpoint directory.  One *repetition* runs every sweep of the
workload once, on the master seed of that repetition; repetition 0 uses
the benchmark's ``--seed`` itself and repetition ``r`` uses
``derive_seed(seed, "perfbench-rep:r")``.  The runner derives every
network and per-point world seed from that master seed, so the program
only ever receives generated configs.

Every world config pins ``check_invariants`` explicitly, so an inherited
``REPRO_CHECK_INVARIANTS`` cannot switch checking on or off behind the
benchmark's back.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.experiments import runner
from repro.experiments.config import PAPER, QUICK
from repro.mapping.world import MappingResult, MappingWorld, MappingWorldConfig
from repro.net.generator import GeneratorConfig, NetworkGenerator
from repro.rng import derive_seed
from repro.routing.world import RoutingResult, RoutingWorld, RoutingWorldConfig

ROUTING = "routing"
MAPPING = "mapping"


@dataclass(frozen=True)
class Sweep:
    """One sweep-API call: a scenario, its network preset and its variants."""

    scenario: str  # ROUTING or MAPPING
    generator: GeneratorConfig
    variants: Dict[str, object]


@dataclass(frozen=True)
class Workload:
    """A named set of sweeps that one repetition runs once each."""

    name: str
    sweeps: Tuple[Sweep, ...]
    #: whether outputs are checked serial-vs-tiled pairwise (``manet_arena``).
    paired: bool = False

    @property
    def points_per_rep(self) -> int:
        return sum(len(sweep.variants) for sweep in self.sweeps)


def _routing(
    kind: str, population: int, visiting: bool = False, check: bool = False, **extra
) -> RoutingWorldConfig:
    return RoutingWorldConfig(
        agent_kind=kind,
        population=population,
        visiting=visiting,
        check_invariants=check,
        **extra,
    )


def _mapping(
    kind: str, population: int, stigmergic: bool, max_steps: int, check: bool
) -> MappingWorldConfig:
    return MappingWorldConfig(
        agent_kind=kind,
        population=population,
        stigmergic=stigmergic,
        max_steps=max_steps,
        check_invariants=check,
    )


def _mapping_paper() -> Workload:
    # fig6's axis (stigmergic conscientious vs super-conscientious teams
    # of 5, 15 and 25) and fig5's plain teams on the paper's 300-node /
    # ~2164-edge network, each run to its finishing time.  Plain
    # super-conscientious teams of 15 and 25 are left out: they crowd
    # onto the same nodes (the abl3 ablation), so their run length varies
    # by a factor of three across seeds and would make points per second
    # a property of the seed.
    variants: Dict[str, object] = {}
    for population in (5, 15, 25):
        for kind in ("conscientious", "super-conscientious"):
            for stigmergic in (False, True):
                if kind == "super-conscientious" and not stigmergic and population > 5:
                    continue
                label = "stigmergic" if stigmergic else "plain"
                variants[f"{kind}@{population}/{label}"] = _mapping(
                    kind, population, stigmergic, PAPER.mapping_max_steps, False
                )
    return Workload(
        "mapping_paper",
        (Sweep(MAPPING, PAPER.mapping_generator_config(), variants),),
    )


#: the 5,000-node arena: the paper's MANET generator shape scaled up.
ARENA_NODES = 5_000
ARENA_STEPS = 10


def _manet_arena() -> Workload:
    generator = dataclasses.replace(
        PAPER.routing_generator_config(), node_count=ARENA_NODES, gateway_count=32
    )
    serial = _routing(
        "oldest-node",
        100,
        visiting=True,
        total_steps=ARENA_STEPS,
        converged_after=0,
    )
    variants = {"serial": serial, "tiled": dataclasses.replace(serial, shards=8)}
    return Workload("manet_arena", (Sweep(ROUTING, generator, variants),), paired=True)


def _quick_checked() -> Workload:
    # QUICK-scale sweeps shaped like fig6 (whose population-1 variant is
    # fig2's single stigmergic conscientious agent) and fig8, with
    # runtime invariant checking forced on: the tier-1 / CI-smoke
    # configuration.  fig2's single *random* agent is left out: its run
    # length is heavy-tailed (200 to over 6000 steps across seeds), so it
    # would make points per second a property of the seed.
    mapping: Dict[str, object] = {}
    for population in QUICK.populations:
        for kind in ("conscientious", "super-conscientious"):
            mapping[f"fig6:{kind}@{population}"] = _mapping(
                kind, population, True, QUICK.mapping_max_steps, True
            )
    routing: Dict[str, object] = {}
    for population in QUICK.routing_populations:
        for kind in ("oldest-node", "random"):
            routing[f"fig8:{kind}@{population}"] = _routing(
                kind,
                population,
                history_size=QUICK.default_history,
                total_steps=QUICK.routing_steps,
                converged_after=QUICK.routing_converged_after,
                check=True,
            )
    return Workload(
        "quick_checked",
        (
            Sweep(MAPPING, QUICK.mapping_generator_config(), mapping),
            Sweep(ROUTING, QUICK.routing_generator_config(), routing),
        ),
    )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (_mapping_paper(), _manet_arena(), _quick_checked())
}


def rep_seed(seed: int, rep: int) -> int:
    """The master seed of repetition ``rep`` of a run seeded ``seed``."""
    return seed if rep == 0 else derive_seed(seed, f"perfbench-rep:{rep}")


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------


class Point(NamedTuple):
    """One (variant, run) outcome; every sweep runs each variant once."""

    sweep: int  # index into the workload's sweeps
    name: str
    result: object


def run_sweep(sweep: Sweep, master_seed: int) -> Dict[str, object]:
    """One sweep-API call, hermetic against ambient runner defaults."""
    # Looked up on the module at call time, so the traced run's wrappers apply.
    if sweep.scenario == ROUTING:
        sweep_fn = runner.run_routing_variants
    else:
        sweep_fn = runner.run_mapping_variants
    with runner.defaults_scope(runner.RunDefaults()):
        return sweep_fn(
            sweep.generator,
            sweep.variants,
            1,
            master_seed=master_seed,
            workers=1,
            checkpoint_dir=None,
        )


def run_rep(workload: Workload, master_seed: int) -> List[Point]:
    """Run every sweep of ``workload`` once; return its points in order."""
    points: List[Point] = []
    for index, sweep in enumerate(workload.sweeps):
        outcomes = run_sweep(sweep, master_seed)
        for name in sweep.variants:
            points.append(Point(index, name, outcomes[name].results[0]))
    return points


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------


def statistics(result: object) -> tuple:
    """The simulated statistics a point is checked on."""
    if isinstance(result, RoutingResult):
        return (
            result.times,
            result.connectivity,
            result.meetings,
            sorted(result.overhead.items()),
            result.guard_rejections,
        )
    return (
        result.finishing_time,
        result.steps_simulated,
        result.average_knowledge,
        result.minimum_knowledge,
        result.meetings,
        sorted(result.overhead.items()),
    )


def digest(result: object) -> str:
    """A short stable hash of :func:`statistics` (floats by exact repr)."""
    return hashlib.sha256(repr(statistics(result)).encode("utf-8")).hexdigest()[:16]


def structural_problem(sweep: Sweep, name: str, result: object) -> Optional[str]:
    """What is wrong with a point's outputs on their own, if anything."""
    config = sweep.variants[name]
    if isinstance(result, RoutingResult):
        steps = config.total_steps
        if result.times != list(range(1, steps + 1)):
            return f"{name}: expected steps 1..{steps}"
        if not all(0.0 <= value <= 1.0 for value in result.connectivity):
            return f"{name}: connectivity outside [0, 1]"
        return None
    if not isinstance(result, MappingResult):
        return f"{name}: unexpected result type {type(result).__name__}"
    if result.finishing_time is None:
        return f"{name}: did not finish within {config.max_steps} steps"
    if result.finishing_time != result.steps_simulated:
        return f"{name}: finished at {result.finishing_time} but ran {result.steps_simulated}"
    if result.average_knowledge[-1] != 1.0 or result.minimum_knowledge[-1] != 1.0:
        return f"{name}: finished without a perfect map"
    knowledge = result.average_knowledge
    if any(later < earlier for earlier, later in zip(knowledge, knowledge[1:])):
        return f"{name}: team knowledge decreased"
    return None


def twin_result(sweep: Sweep, name: str, master_seed: int) -> object:
    """Re-run one point outside the runner through an independent path.

    Routing points run the per-object agent stepper (the batch engine's
    oracle twin) on a freshly generated MANET; mapping points run on a
    freshly generated network instead of the runner's cached one.  Seeds
    are derived exactly as the runner derives them for run 0.
    """
    config = sweep.variants[name]
    if sweep.scenario == ROUTING:
        network = derive_seed(master_seed, "routing-net")
        world = derive_seed(master_seed, "routing-world:0")
        topology = NetworkGenerator(sweep.generator, network).generate_manet()
        twin = dataclasses.replace(config, batch_agents=False)
        return RoutingWorld(topology, twin, world).run()
    network = derive_seed(master_seed, "mapping-net")
    world = derive_seed(master_seed, "mapping-world:0")
    topology = NetworkGenerator(sweep.generator, network).generate_static()
    return MappingWorld(topology, config, world).run()


def point_key(point: Point) -> str:
    return f"{point.sweep}/{point.name}"


def check_rep(
    workload: Workload,
    points: List[Point],
    reference: Optional[List[str]],
) -> Dict[str, str]:
    """Failures of one repetition's points, keyed by point.

    Checks each point on its own, against the recorded reference digests
    when the repetition has them, and (``manet_arena``) serial against
    tiled.
    """
    failures: Dict[str, str] = {}
    if reference is not None and len(reference) != len(points):
        return {"reference": "reference has a different point count"}
    for position, point in enumerate(points):
        problem = structural_problem(workload.sweeps[point.sweep], point.name, point.result)
        if problem is None and reference is not None:
            if digest(point.result) != reference[position]:
                problem = f"{point.name}: statistics differ from the reference"
        if problem is not None:
            failures[point_key(point)] = problem
    if workload.paired:
        serial, tiled = (point.result for point in points)
        if statistics(serial) != statistics(tiled):
            failures[point_key(points[1])] = "tiled run differs from serial"
    return failures


def twin_problem(
    workload: Workload, seed: int, points: List[Point]
) -> Optional[Tuple[str, str]]:
    """Re-run one point of repetition 0 by :func:`twin_result`; compare.

    The point is chosen by the seed, so different seeds check different
    variants.  Returns ``(point key, problem)`` when they differ.
    """
    point = points[seed % len(points)]
    twin = twin_result(workload.sweeps[point.sweep], point.name, rep_seed(seed, 0))
    if statistics(twin) != statistics(point.result):
        return point_key(point), f"{point.name}: differs from its twin run"
    return None
