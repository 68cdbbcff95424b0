"""Adversarial-resilience experiments: gray failures, defenses on vs off.

The paper's fault model (§III-B) kills nodes outright — detectable by
silence.  A *gray* failure is nastier: the node stays up, keeps its
links, and silently drops most of what it is handed, so every metric
that equates liveness with health keeps trusting it.  ``adversary1``
sweeps the fraction of gray-failed nodes over the identical seeded
MANET twice — once with the suspicion/quarantine health monitor and
table-write guards enabled, once without — and measures what the
defense layer actually buys in end-to-end payload delivery.

Each adversarial variant also carries two corrupted agents that forge
attractive routing knowledge (hop counts of 1, sequence numbers stamped
ahead of the clock); the defended arm's table guard rejects the forged
writes, the undefended arm installs them.  Every world runs with
``check_invariants`` forced on, which now also certifies that
quarantine never isolates a live node and that guard rejections are
conserved in the overhead counters.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from repro.analysis.series import TimeSeries
from repro.analysis.stats import summarize
from repro.experiments.config import DEFAULT_MASTER_SEED, Scale
from repro.experiments.report import ExperimentReport
from repro.experiments.runner import ProgressCallback, run_routing_variants
from repro.faults.plan import AdversarySpec, FaultPlan
from repro.net.health import HealthConfig
from repro.routing.table import TableGuard
from repro.routing.world import RoutingWorldConfig
from repro.traffic.plane import TrafficConfig

__all__ = ["adversary1", "ADVERSARY_GRAY_FRACTIONS"]

#: Gray-failure node fractions swept (0 anchors the clean baseline).
ADVERSARY_GRAY_FRACTIONS = (0.0, 0.1, 0.2, 0.3)

#: Drop rate of each gray-failed node (relays agents, swallows payloads).
ADVERSARY_GRAY_RATE = 0.95

#: Corrupted agents riding along in every adversarial variant.
ADVERSARY_CORRUPT_AGENTS = 4

#: Delivery a defended world must retain at 20% gray nodes, relative to
#: its own clean baseline (the ISSUE's acceptance bar).
RECOVERY_BAR = 0.8


def _label(defended: bool, fraction: float) -> str:
    arm = "defended" if defended else "undefended"
    return f"{arm}@gray={fraction:g}"


def adversary1(
    scale: Scale,
    master_seed: int = DEFAULT_MASTER_SEED,
    progress: Optional[ProgressCallback] = None,
) -> ExperimentReport:
    """Payload delivery vs gray-failure fraction, defenses on vs off.

    Both arms of each fraction share the *identical* fault plan (same
    victims, same corrupted agents, same schedule) — the only difference
    is whether the health monitor and table guard are attached, so the
    delivery gap is attributable to the defense layer alone.
    """
    # A slightly denser, steadier MANET than the scenario default: the
    # shrunken arena gives most nodes a detour around a quarantined
    # neighbor (sparse networks turn gray nodes into cut vertices no
    # defense can route around), and the lower mobile fraction keeps
    # paths stable long enough for link evidence to pay off.
    base = scale.routing_generator_config()
    generator_config = replace(
        base,
        arena_width=base.arena_width * 0.8,
        arena_height=base.arena_height * 0.8,
        mobile_fraction=0.2,
    )
    gateways = tuple(range(generator_config.gateway_count))
    # A TTL of a third of the run turns gray-induced *delay* (burned
    # retransmission budget) into measurable *loss* — with a whole-run
    # TTL, custody retries eventually push most payloads through even a
    # 95%-drop next hop and the arms become indistinguishable.  The
    # generation window starts after the adversary activates and closes
    # one TTL before the run ends, so every payload's fate is decided
    # (no still-buffered tail diluting the delivery ratio), and the
    # 2.0/step rate keeps per-run payload counts high enough that the
    # arms differ by dozens of payloads rather than a handful.
    ttl = max(10, scale.routing_steps // 3)
    traffic = TrafficConfig(
        rate=2.0,
        payload_ttl=ttl,
        router="store-and-forward",
        start=10,
        stop=max(11, scale.routing_steps - ttl),
    )

    def plan_for(fraction: float) -> Optional[FaultPlan]:
        if fraction == 0.0:
            return None  # the clean anchor: no adversary at all
        return FaultPlan.random_adversary(
            master_seed,
            AdversarySpec(
                gray_fraction=fraction,
                gray_rate=ADVERSARY_GRAY_RATE,
                corrupt_agents=ADVERSARY_CORRUPT_AGENTS,
            ),
            node_count=generator_config.node_count,
            population=scale.routing_population,
            exclude=gateways,
            name=f"adversary:{fraction:g}",
        )

    variants: Dict[str, RoutingWorldConfig] = {}
    for fraction in ADVERSARY_GRAY_FRACTIONS:
        plan = plan_for(fraction)
        for defended in (True, False):
            variants[_label(defended, fraction)] = RoutingWorldConfig(
                population=scale.routing_population,
                history_size=scale.default_history,
                total_steps=scale.routing_steps,
                converged_after=scale.routing_converged_after,
                fault_plan=plan,
                health=HealthConfig() if defended else None,
                table_guard=TableGuard() if defended else None,
                check_invariants=True,
                traffic=traffic,
            )
    outcomes = run_routing_variants(
        generator_config,
        variants,
        scale.runs,
        master_seed,
        progress,
    )
    report = ExperimentReport(
        experiment_id="adversary1",
        title="payload delivery vs gray-failure fraction, defenses on vs off",
        paper_claim=(
            "(beyond the paper: §III-B only kills nodes outright; a gray "
            "failure keeps answering the topology while silently dropping "
            "forwards, so resilience requires evidence-based suspicion — "
            "EWMA link quality, quarantine, and table-write guards should "
            "recover most of the clean-network delivery ratio)"
        ),
        columns=[
            "defenses",
            "gray fraction",
            "delivery ratio",
            "quarantines",
            "guard rejections",
            "retransmissions",
        ],
        y_label="delivery ratio",
    )
    means: Dict[str, List[float]] = {"defended": [], "undefended": []}
    for defended in (True, False):
        arm = "defended" if defended else "undefended"
        for fraction in ADVERSARY_GRAY_FRACTIONS:
            results = outcomes[_label(defended, fraction)].results
            traffic_reports = [r.traffic for r in results]
            ratio = summarize([t.delivery_ratio for t in traffic_reports])
            means[arm].append(ratio.mean)
            report.add_row(
                arm,
                f"{fraction:g}",
                ratio.format(digits=3),
                sum(r.health.quarantines for r in results if r.health is not None),
                sum(r.guard_rejections for r in results),
                sum(
                    t.counters.get("retransmissions", 0)
                    for t in traffic_reports
                ),
            )
        report.series[arm] = TimeSeries(
            [int(f * 100) for f in ADVERSARY_GRAY_FRACTIONS], means[arm]
        )
    baseline = means["defended"][0]
    bar = RECOVERY_BAR * baseline
    at_twenty = ADVERSARY_GRAY_FRACTIONS.index(0.2)
    defended_ok = means["defended"][at_twenty] >= bar
    undefended_below = means["undefended"][at_twenty] < bar
    report.add_note(
        f"at 20% gray nodes the defended arm delivers "
        f"{means['defended'][at_twenty]:.3f} vs a clean baseline of "
        f"{baseline:.3f} — recovery bar ({RECOVERY_BAR:g}x baseline = "
        f"{bar:.3f}) " + ("met" if defended_ok else "MISSED")
    )
    report.add_note(
        f"the undefended arm delivers {means['undefended'][at_twenty]:.3f} "
        "at 20% gray nodes — "
        + (
            "below the bar, so the gap is the defense layer's contribution"
            if undefended_below
            else "UNEXPECTEDLY above the bar"
        )
    )
    report.add_note(
        "both arms of each fraction share the identical seeded fault plan "
        "(same gray victims, same corrupted agents); only the health "
        "monitor and table guard differ"
    )
    report.add_note(
        "invariant checker was active in every world, including the "
        "quarantine-never-isolates and guard-rejection-conservation "
        "checks; a violation aborts its run, so completed sweeps certify "
        "zero violations"
    )
    return report
