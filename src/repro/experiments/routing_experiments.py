"""Routing-scenario experiments: paper Figures 7–11 plus the extension."""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis.compare import welch_t_test
from repro.errors import ConfigurationError
from repro.experiments.config import DEFAULT_MASTER_SEED, Scale
from repro.experiments.report import ExperimentReport
from repro.experiments.runner import (
    ProgressCallback,
    RoutingVariantResult,
    run_routing_variants,
)
from repro.faults.plan import FaultPlan
from repro.routing.world import RoutingWorldConfig

__all__ = [
    "fig7", "fig8", "fig9", "fig10", "fig11", "ext1", "ext2", "abl6", "faults1",
]


def _require_paired_runs(experiment_id: str, scale: Scale) -> None:
    """Refuse, before any simulation, a run count Welch's test cannot use."""
    if scale.runs < 2:
        raise ConfigurationError(
            f"{experiment_id} compares variants with Welch's t-test, which "
            f"needs at least 2 runs per variant (got --runs {scale.runs})"
        )


def _world(
    scale: Scale,
    kind: str = "oldest-node",
    population: Optional[int] = None,
    history: Optional[int] = None,
    visiting: bool = False,
    stigmergic: bool = False,
    fault_plan: Optional[FaultPlan] = None,
) -> RoutingWorldConfig:
    return RoutingWorldConfig(
        agent_kind=kind,
        population=population if population is not None else scale.routing_population,
        history_size=history if history is not None else scale.default_history,
        visiting=visiting,
        stigmergic=stigmergic,
        total_steps=scale.routing_steps,
        converged_after=scale.routing_converged_after,
        fault_plan=fault_plan,
    )


def _connectivity_row(report: ExperimentReport, result: RoutingVariantResult) -> None:
    connectivity = result.connectivity_summary
    stability = result.stability_summary
    report.add_row(
        result.name,
        connectivity.format(digits=3),
        f"{stability.mean:.3f}",
    )


_COLUMNS = ["variant", "mean connectivity (converged)", "fluctuation (std)"]


def fig7(
    scale: Scale,
    master_seed: int = DEFAULT_MASTER_SEED,
    progress: Optional[ProgressCallback] = None,
) -> ExperimentReport:
    """Figure 7: connectivity over time for a team of oldest-node agents."""
    variants = {"oldest-node": _world(scale)}
    outcomes = run_routing_variants(
        scale.routing_generator_config(), variants, scale.runs, master_seed, progress
    )
    report = ExperimentReport(
        experiment_id="fig7",
        title=f"connectivity over time, {scale.routing_population} oldest-node agents",
        paper_claim=(
            "connectivity starts at zero, rises quickly, then fluctuates around "
            "a steady mean; converged well before half the run"
        ),
        columns=_COLUMNS,
        y_label="connectivity fraction",
    )
    result = outcomes["oldest-node"]
    _connectivity_row(report, result)
    series = result.connectivity_series()
    report.series["oldest-node"] = series
    early = series.values[0] if series.values else 0.0
    report.add_note(f"connectivity at step 1: {early:.3f} (paper: starts at zero)")
    from repro.analysis.series import convergence_time

    settled = convergence_time(series)
    report.add_note(
        f"measured convergence time: step {settled} "
        f"(paper: 'at time {scale.routing_converged_after} or well before')"
    )
    return report


def fig8(
    scale: Scale,
    master_seed: int = DEFAULT_MASTER_SEED,
    progress: Optional[ProgressCallback] = None,
) -> ExperimentReport:
    """Figure 8: connectivity vs agent population size."""
    variants: Dict[str, RoutingWorldConfig] = {}
    for population in scale.routing_populations:
        variants[f"oldest-node@{population}"] = _world(scale, population=population)
        variants[f"random@{population}"] = _world(
            scale, kind="random", population=population
        )
    outcomes = run_routing_variants(
        scale.routing_generator_config(), variants, scale.runs, master_seed, progress
    )
    report = ExperimentReport(
        experiment_id="fig8",
        title="connectivity vs population size",
        paper_claim=(
            "more agents give higher and more stable connectivity; oldest-node "
            "beats random at every setting"
        ),
        columns=["population", "agent", "mean connectivity", "fluctuation (std)"],
    )
    for population in scale.routing_populations:
        for kind in ("oldest-node", "random"):
            result = outcomes[f"{kind}@{population}"]
            report.add_row(
                population,
                kind,
                result.connectivity_summary.format(digits=3),
                f"{result.stability_summary.mean:.3f}",
            )
    return report


def fig9(
    scale: Scale,
    master_seed: int = DEFAULT_MASTER_SEED,
    progress: Optional[ProgressCallback] = None,
) -> ExperimentReport:
    """Figure 9: connectivity vs agent history size."""
    variants: Dict[str, RoutingWorldConfig] = {}
    for history in scale.history_sizes:
        variants[f"oldest-node@h{history}"] = _world(scale, history=history)
        variants[f"random@h{history}"] = _world(scale, kind="random", history=history)
    outcomes = run_routing_variants(
        scale.routing_generator_config(), variants, scale.runs, master_seed, progress
    )
    report = ExperimentReport(
        experiment_id="fig9",
        title="connectivity vs history size",
        paper_claim=(
            "larger history gives higher and more stable connectivity; "
            "oldest-node beats random at every setting"
        ),
        columns=["history", "agent", "mean connectivity", "fluctuation (std)"],
    )
    for history in scale.history_sizes:
        for kind in ("oldest-node", "random"):
            result = outcomes[f"{kind}@h{history}"]
            report.add_row(
                history,
                kind,
                result.connectivity_summary.format(digits=3),
                f"{result.stability_summary.mean:.3f}",
            )
    return report


def _visiting_figure(
    experiment_id: str,
    kind: str,
    claim: str,
    scale: Scale,
    master_seed: int,
    progress: Optional[ProgressCallback],
) -> ExperimentReport:
    _require_paired_runs(experiment_id, scale)
    variants: Dict[str, RoutingWorldConfig] = {}
    for history in scale.visiting_history_sizes:
        for visiting in (False, True):
            label = "visiting" if visiting else "no visiting"
            variants[f"{kind} h={history} ({label})"] = _world(
                scale, kind=kind, history=history, visiting=visiting
            )
    outcomes = run_routing_variants(
        scale.routing_generator_config(), variants, scale.runs, master_seed, progress
    )
    report = ExperimentReport(
        experiment_id=experiment_id,
        title=f"effect of visiting (direct communication) on {kind} agents",
        paper_claim=claim,
        columns=["history", "variant", "mean connectivity", "fluctuation (std)", "visiting effect"],
        y_label="connectivity fraction",
    )
    largest = max(scale.visiting_history_sizes)
    for history in scale.visiting_history_sizes:
        off = outcomes[f"{kind} h={history} (no visiting)"]
        on = outcomes[f"{kind} h={history} (visiting)"]
        effect = on.connectivity_summary.mean - off.connectivity_summary.mean
        for result, label in ((off, "no visiting"), (on, "visiting")):
            report.add_row(
                history,
                f"{kind} ({label})",
                result.connectivity_summary.format(digits=3),
                f"{result.stability_summary.mean:.3f}",
                f"{effect:+.3f}" if label == "visiting" else "",
            )
        if history == largest:
            report.series[f"{kind} (no visiting)"] = off.connectivity_series()
            report.series[f"{kind} (visiting)"] = on.connectivity_series()
        test = welch_t_test(
            [r.mean_connectivity for r in on.results],
            [r.mean_connectivity for r in off.results],
        )
        report.add_note(
            f"h={history}: visiting changes mean connectivity by {effect:+.3f} "
            f"(Welch p={test.p_value:.3g})"
        )
    return report


def fig10(
    scale: Scale,
    master_seed: int = DEFAULT_MASTER_SEED,
    progress: Optional[ProgressCallback] = None,
) -> ExperimentReport:
    """Figure 10: visiting helps random agents."""
    return _visiting_figure(
        "fig10",
        "random",
        "exchanging best routes in meetings improves random-agent connectivity",
        scale,
        master_seed,
        progress,
    )


def fig11(
    scale: Scale,
    master_seed: int = DEFAULT_MASTER_SEED,
    progress: Optional[ProgressCallback] = None,
) -> ExperimentReport:
    """Figure 11: visiting hurts oldest-node agents."""
    return _visiting_figure(
        "fig11",
        "oldest-node",
        (
            "visiting makes oldest-node agents identical in history, so they "
            "chase each other and connectivity drops"
        ),
        scale,
        master_seed,
        progress,
    )


def ext1(
    scale: Scale,
    master_seed: int = DEFAULT_MASTER_SEED,
    progress: Optional[ProgressCallback] = None,
) -> ExperimentReport:
    """Extension (paper future work): stigmergy in dynamic routing."""
    _require_paired_runs("ext1", scale)
    variants = {
        "oldest-node (plain)": _world(scale),
        "oldest-node (stigmergic)": _world(scale, stigmergic=True),
        "random (plain)": _world(scale, kind="random"),
        "random (stigmergic)": _world(scale, kind="random", stigmergic=True),
    }
    outcomes = run_routing_variants(
        scale.routing_generator_config(), variants, scale.runs, master_seed, progress
    )
    report = ExperimentReport(
        experiment_id="ext1",
        title="extension: stigmergic footprints in dynamic routing (paper future work)",
        paper_claim=(
            "'We strongly believe stigmergy can improve the agents' performance "
            "effectively' — untested in the paper"
        ),
        columns=_COLUMNS,
    )
    for name in sorted(outcomes):
        _connectivity_row(report, outcomes[name])
    plain = outcomes["oldest-node (plain)"].connectivity_summary.mean
    stig = outcomes["oldest-node (stigmergic)"].connectivity_summary.mean
    test = welch_t_test(
        [r.mean_connectivity for r in outcomes["oldest-node (stigmergic)"].results],
        [r.mean_connectivity for r in outcomes["oldest-node (plain)"].results],
    )
    report.add_note(
        f"stigmergy effect on oldest-node mean connectivity: {stig - plain:+.3f} "
        f"(Welch p={test.p_value:.3g})"
    )
    return report


def ext2(
    scale: Scale,
    master_seed: int = DEFAULT_MASTER_SEED,
    progress: Optional[ProgressCallback] = None,
) -> ExperimentReport:
    """Extension: attractive ant pheromone vs the paper's repulsive footprints.

    The paper's related work routes with ant-colony trails (AntHocNet
    [9], pheromone routing [11]) — agents are *attracted* toward strong
    trails near gateways — whereas the paper's footprints *repel* agents
    apart.  Both run here on the identical task, tables and metric.
    """
    variants = {
        "oldest-node (repulsive footprints)": _world(scale, stigmergic=True),
        "oldest-node (plain)": _world(scale),
        "ant (attractive pheromone)": _world(scale, kind="ant"),
        "random (reference)": _world(scale, kind="random"),
    }
    outcomes = run_routing_variants(
        scale.routing_generator_config(), variants, scale.runs, master_seed, progress
    )
    report = ExperimentReport(
        experiment_id="ext2",
        title="extension: attractive pheromone (ACO) vs repulsive footprints",
        paper_claim=(
            "(comparison baseline from refs [9]/[11]; expectation: attraction "
            "concentrates agents near gateways, dispersal covers the network)"
        ),
        columns=_COLUMNS,
        y_label="connectivity fraction",
    )
    for name in variants:
        result = outcomes[name]
        _connectivity_row(report, result)
        report.series[name] = result.connectivity_series()
    ants = outcomes["ant (attractive pheromone)"].connectivity_summary.mean
    footprints = outcomes[
        "oldest-node (repulsive footprints)"
    ].connectivity_summary.mean
    report.add_note(
        f"repulsive footprints vs attractive pheromone: "
        f"{footprints:.3f} vs {ants:.3f} ({footprints - ants:+.3f})"
    )
    return report


def faults1(
    scale: Scale,
    master_seed: int = DEFAULT_MASTER_SEED,
    progress: Optional[ProgressCallback] = None,
) -> ExperimentReport:
    """Resilience: agent kinds compared under identical seeded churn.

    Every variant runs the *same* fault plan — random node churn (each
    victim crashes once and recovers after a random downtime) plus a
    full outage of the first gateway — so the comparison isolates the
    agent strategy.  Displaced agents respawn on a random live node.
    The connectivity dip, the time to re-converge after the last fault,
    and agent survival come from the resilience tracker.
    """
    steps = scale.routing_steps
    churn_start = max(1, steps // 4)
    churn_end = max(churn_start + 1, steps // 2)
    plan = FaultPlan.random_churn(
        master_seed,
        node_count=scale.routing_nodes,
        start=churn_start,
        end=churn_end,
        crashes=max(1, scale.routing_nodes // 20),
        min_downtime=max(2, steps // 30),
        max_downtime=max(3, steps // 10),
        agent_policy="respawn",
        name="faults1",
    ).gateway_outage(max(1, steps // 3), max(2, steps // 3 + steps // 6))
    variants = {
        "oldest-node": _world(scale, fault_plan=plan),
        "oldest-node (stigmergic)": _world(scale, stigmergic=True, fault_plan=plan),
        "random": _world(scale, kind="random", fault_plan=plan),
    }
    outcomes = run_routing_variants(
        scale.routing_generator_config(), variants, scale.runs, master_seed, progress
    )
    report = ExperimentReport(
        experiment_id="faults1",
        title="resilience under node churn and a gateway outage",
        paper_claim=(
            "(beyond the paper: the agent population should re-route around "
            "crashed nodes and recover connectivity once faults subside)"
        ),
        columns=[
            "variant",
            "mean connectivity (converged)",
            "dip depth",
            "reconverge steps",
            "agent survival",
        ],
        y_label="connectivity fraction",
    )
    for name in variants:
        result = outcomes[name]
        resilience = [r.resilience for r in result.results if r.resilience is not None]
        dips = [r.dip_depth for r in resilience]
        reconverged = [
            r.reconverge_steps for r in resilience if r.reconverge_steps is not None
        ]
        survival = [r.agent_survival for r in resilience]
        report.add_row(
            name,
            result.connectivity_summary.format(digits=3),
            f"{sum(dips) / len(dips):.3f}" if dips else "-",
            f"{sum(reconverged) / len(reconverged):.0f}" if reconverged else "-",
            f"{sum(survival) / len(survival):.2f}" if survival else "-",
        )
        report.series[name] = result.connectivity_series()
        report.add_note(
            f"{name}: {len(reconverged)}/{len(resilience)} runs re-converged to "
            "90% of the pre-fault baseline"
        )
    report.add_note(
        f"shared plan: {len(plan)} fault events over steps "
        f"{plan.first_fault_time}..{plan.last_fault_time}, "
        f"agent policy '{plan.agent_policy}'"
    )
    return report


def abl6(
    scale: Scale,
    master_seed: int = DEFAULT_MASTER_SEED,
    progress: Optional[ProgressCallback] = None,
) -> ExperimentReport:
    """Ablation: route *quality* (stretch, coverage, balance) per agent type.

    The paper's connectivity fraction cannot tell a barely-valid route
    from an optimal one; this ablation measures, at the end of each run,
    how direct the installed routes are, how far table writes spread,
    and how evenly the gateways are used.
    """
    from repro.analysis.stats import summarize
    from repro.net.generator import NetworkGenerator
    from repro.routing.metrics import measure_route_quality
    from repro.routing.world import RoutingWorld
    from repro.rng import derive_seed

    variants = {
        "oldest-node": _world(scale),
        "oldest-node (stigmergic)": _world(scale, stigmergic=True),
        "random": _world(scale, kind="random"),
        "ant": _world(scale, kind="ant"),
    }
    generator_config = scale.routing_generator_config()
    network_seed = derive_seed(master_seed, "routing-net")
    report = ExperimentReport(
        experiment_id="abl6",
        title="ablation: route quality (stretch / coverage / gateway balance)",
        paper_claim="(beyond the paper's metric; connectivity alone hides route quality)",
        columns=[
            "variant",
            "connectivity",
            "mean stretch",
            "table coverage",
            "gateway balance",
        ],
    )
    for variant_index, (name, config) in enumerate(variants.items()):
        qualities = []
        for run_index in range(scale.runs):
            topology = NetworkGenerator(generator_config, network_seed).generate_manet()
            world_seed = derive_seed(master_seed, f"routing-world:{run_index}")
            world = RoutingWorld(topology, config, world_seed)
            world.run()
            qualities.append(measure_route_quality(world.topology, world.tables))
            if progress is not None:
                progress(
                    "routing",
                    variant_index * scale.runs + run_index + 1,
                    len(variants) * scale.runs,
                )
        connectivity = summarize([q.connectivity for q in qualities])
        stretches = [q.mean_stretch for q in qualities if q.mean_stretch is not None]
        coverages = summarize([q.table_coverage for q in qualities])
        balances = [q.gateway_balance for q in qualities if q.gateway_balance is not None]
        report.add_row(
            name,
            f"{connectivity.mean:.3f}",
            f"{sum(stretches) / len(stretches):.2f}" if stretches else "-",
            f"{coverages.mean:.3f}",
            f"{sum(balances) / len(balances):.2f}" if balances else "-",
        )
    return report
