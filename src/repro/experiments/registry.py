"""The experiment registry: every reproducible figure by id."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import ExperimentError
from repro.experiments import (
    adversary_experiments,
    loss_experiments,
    mapping_experiments,
    routing_experiments,
    traffic_experiments,
)
from repro.experiments.config import DEFAULT_MASTER_SEED, Scale
from repro.experiments.report import ExperimentReport
from repro.experiments.runner import ProgressCallback

__all__ = [
    "Experiment",
    "EXPERIMENTS",
    "SCALE_TIERS",
    "get_experiment",
    "list_experiments",
    "experiments_metadata",
]

ExperimentFn = Callable[..., ExperimentReport]

#: every scale tier a registered experiment can run at.
SCALE_TIERS = ("quick", "paper")


@dataclass(frozen=True)
class Experiment:
    """One registered experiment (a paper figure, extension, or ablation)."""

    experiment_id: str
    title: str
    scenario: str
    run_fn: ExperimentFn

    def run(
        self,
        scale: Scale,
        master_seed: int = DEFAULT_MASTER_SEED,
        progress: Optional[ProgressCallback] = None,
    ) -> ExperimentReport:
        """Execute the experiment at ``scale`` and return its report."""
        return self.run_fn(scale, master_seed, progress)

    def to_metadata(self) -> dict:
        """The JSON-safe discovery record (``repro list --json``)."""
        return {
            "id": self.experiment_id,
            "title": self.title,
            "scenario": self.scenario,
            "tiers": list(SCALE_TIERS),
        }


def _entry(experiment_id: str, title: str, scenario: str, fn: ExperimentFn) -> Experiment:
    return Experiment(experiment_id, title, scenario, fn)


EXPERIMENTS: Dict[str, Experiment] = {
    e.experiment_id: e
    for e in (
        _entry("fig1", "single Minar agent: random vs conscientious", "mapping",
               mapping_experiments.fig1),
        _entry("fig2", "single stigmergic agent: random vs conscientious", "mapping",
               mapping_experiments.fig2),
        _entry("fig3", "team knowledge over time (Minar conscientious)", "mapping",
               mapping_experiments.fig3),
        _entry("fig4", "team knowledge over time (stigmergic conscientious)", "mapping",
               mapping_experiments.fig4),
        _entry("fig5", "population sweep: conscientious vs super (Minar)", "mapping",
               mapping_experiments.fig5),
        _entry("fig6", "population sweep: conscientious vs super (stigmergic)",
               "mapping", mapping_experiments.fig6),
        _entry("fig7", "connectivity over time (oldest-node team)", "routing",
               routing_experiments.fig7),
        _entry("fig8", "connectivity vs population size", "routing",
               routing_experiments.fig8),
        _entry("fig9", "connectivity vs history size", "routing",
               routing_experiments.fig9),
        _entry("fig10", "visiting effect on random agents", "routing",
               routing_experiments.fig10),
        _entry("fig11", "visiting effect on oldest-node agents", "routing",
               routing_experiments.fig11),
        _entry("ext1", "extension: stigmergic dynamic routing", "routing",
               routing_experiments.ext1),
        _entry("ext2", "extension: attractive pheromone vs repulsive footprints",
               "routing", routing_experiments.ext2),
        _entry("faults1", "resilience under node churn and a gateway outage",
               "routing", routing_experiments.faults1),
        _entry("loss1", "lossy channels: connectivity and map completion vs loss rate",
               "routing", loss_experiments.loss1),
        _entry("traffic1", "payload delivery vs loss: custody store-and-forward "
               "vs epidemic vs spray-and-wait", "routing", traffic_experiments.traffic1),
        _entry("adversary1", "adversarial resilience: gray failures and corrupted "
               "agents, defenses on vs off", "routing",
               adversary_experiments.adversary1),
        _entry("abl1", "ablation: footprint freshness window", "mapping",
               mapping_experiments.abl1),
        _entry("abl2", "ablation: symmetric vs directed environment", "mapping",
               mapping_experiments.abl2),
        _entry("abl3", "ablation: epsilon-randomized vs stigmergic super agents",
               "mapping", mapping_experiments.abl3),
        _entry("abl4", "ablation: per-decision overhead accounting", "mapping",
               mapping_experiments.abl4),
        _entry("abl5", "ablation: orderings across generated networks", "mapping",
               mapping_experiments.abl5),
        _entry("abl6", "ablation: route quality (stretch/coverage/balance)", "routing",
               routing_experiments.abl6),
    )
}


def get_experiment(experiment_id: str) -> Experiment:
    """Look up an experiment by id; raise with the valid ids listed."""
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; valid ids: "
            f"{', '.join(sorted(EXPERIMENTS))}"
        ) from None


def list_experiments() -> List[Experiment]:
    """All experiments ordered by id (figures first, then extensions)."""
    def key(e: Experiment):
        prefix = {"fig": 0, "ext": 1, "abl": 2}.get(e.experiment_id[:3], 3)
        digits = "".join(ch for ch in e.experiment_id if ch.isdigit())
        return (prefix, int(digits) if digits else 0)

    return sorted(EXPERIMENTS.values(), key=key)


def experiments_metadata() -> List[dict]:
    """Machine-readable records for every experiment, in listing order.

    This is what ``repro list --json`` prints and external tooling
    consumes to discover scenarios without parsing ``repro list`` text.
    """
    return [experiment.to_metadata() for experiment in list_experiments()]
