"""Per-node neighbor health: EWMA link quality, suspicion, quarantine.

Gray failures are the hardest fault in the plan DSL precisely because
nothing *looks* wrong: the neighbor stays up, keeps its links, answers
the topology — and silently drops most of what it is handed.  AntNet
(Di Caro & Dorigo) showed that per-link statistical quality estimates
are the right primitive for routing around unreliable links without any
coordination; this module is that primitive for the agent worlds.

Each directed link an agent or payload actually *uses* accumulates an
exponentially weighted success estimate, fed by the two ground-truth
signals the worlds already produce:

* migration outcomes — a hop either delivered the agent or it did not,
* custody-transfer outcomes — a payload data+ack round either completed
  or it did not.

When a link's quality falls below ``suspect_threshold`` (after at least
``min_samples`` observations, so one unlucky draw cannot condemn a good
neighbor), the neighbor is **quarantined**: excluded from next-hop
choice and custody transfer by every caller that consults
:meth:`HealthMonitor.filter_targets`.  Quarantine is never allowed to
isolate a node — if filtering would leave no candidates the full list
is returned, which is also what the invariant checker verifies.

Quarantine is not forever.  After ``probation_after`` steps the link
enters **probation**: it becomes usable again, with its quality pinned
at exactly ``suspect_threshold``, and the next observations decide —
``probation_successes`` *consecutive* successes clear the neighbor, a
single failure re-quarantines it.  A healed gray failure therefore
rehabilitates within one probation cycle, while a persistent 95%-drop
one almost never gets lucky enough times in a row to launder its way
back to trusted (a single-success rule would re-admit it one probe in
twenty).

The monitor is pure bookkeeping over outcomes the simulation already
computed: it draws no randomness, so two runs differing only in whether
a (never-consulted) monitor is attached remain bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.types import NodeId, Time

__all__ = ["HealthConfig", "HealthReport", "HealthMonitor"]

#: Link states beyond the implicit default (absent = trusted).
_QUARANTINED = "quarantined"
_PROBATION = "probation"


@dataclass(frozen=True)
class HealthConfig:
    """Suspicion/quarantine knobs for one world's health monitor.

    Frozen and hashable so it rides inside the frozen world configs,
    pickles across ``multiprocessing`` workers, and keys sweep
    checkpoints.  The defaults are tuned so a 90%-drop gray failure is
    caught within a handful of interactions while an honest neighbor on
    a moderately lossy channel stays clear of the threshold.
    """

    #: EWMA weight of the newest observation.
    alpha: float = 0.3
    #: quality below this (with enough samples) quarantines the link.
    suspect_threshold: float = 0.4
    #: probation quality at/above this rehabilitates the link.
    clear_threshold: float = 0.5
    #: observations required before quarantine can trip.
    min_samples: int = 4
    #: quarantined links re-enter probation after this many steps.
    probation_after: int = 16
    #: consecutive probation successes required to rehabilitate.
    probation_successes: int = 2

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigurationError(
                f"alpha must be in (0, 1], got {self.alpha}"
            )
        if not 0.0 < self.suspect_threshold < 1.0:
            raise ConfigurationError(
                f"suspect_threshold must be in (0, 1), got {self.suspect_threshold}"
            )
        if not self.suspect_threshold <= self.clear_threshold <= 1.0:
            raise ConfigurationError(
                "clear_threshold must be in [suspect_threshold, 1], got "
                f"{self.clear_threshold}"
            )
        # Probation must be winnable: the required streak of successes
        # from the pinned probation quality has to reach the clear
        # threshold, otherwise a healed neighbor could never
        # rehabilitate.
        best = 1.0 - (1.0 - self.alpha) ** max(1, self.probation_successes) * (
            1.0 - self.suspect_threshold
        )
        if best < self.clear_threshold:
            raise ConfigurationError(
                f"unwinnable probation: {self.probation_successes} "
                f"success(es) lift quality only to {best:.3f}, below "
                f"clear_threshold={self.clear_threshold}"
            )
        if self.min_samples < 1:
            raise ConfigurationError(
                f"min_samples must be >= 1, got {self.min_samples}"
            )
        if self.probation_after < 1:
            raise ConfigurationError(
                f"probation_after must be >= 1, got {self.probation_after}"
            )
        if self.probation_successes < 1:
            raise ConfigurationError(
                f"probation_successes must be >= 1, got {self.probation_successes}"
            )


@dataclass(frozen=True)
class HealthReport:
    """End-of-run health accounting for one world."""

    #: links ever quarantined (re-quarantines counted again).
    quarantines: int = 0
    #: probation exits back to trusted.
    rehabilitations: int = 0
    #: links still quarantined when the run ended.
    quarantined_final: int = 0
    #: directed links that accumulated at least one observation.
    links_tracked: int = 0
    #: lowest link quality estimate at run end (1.0 when untracked).
    worst_quality: float = 1.0


class HealthMonitor:
    """EWMA link-quality estimates and quarantine state for one world.

    One monitor serves every node: state is keyed by the directed link
    ``(node, neighbor)``, so each node's view of a neighbor is its own
    (node 3 may quarantine node 7 while node 5 still trusts it —
    exactly the local-evidence semantics of a distributed deployment).
    """

    def __init__(self, config: HealthConfig, hooks: Optional[Any] = None) -> None:
        self.config = config
        self.hooks = hooks
        self._quality: Dict[Tuple[NodeId, NodeId], float] = {}
        self._samples: Dict[Tuple[NodeId, NodeId], int] = {}
        #: link -> _QUARANTINED | _PROBATION (absent = trusted).
        self._state: Dict[Tuple[NodeId, NodeId], str] = {}
        #: quarantined link -> step at which probation begins.
        self._probation_at: Dict[Tuple[NodeId, NodeId], Time] = {}
        #: probation link -> consecutive successes so far.
        self._probation_streak: Dict[Tuple[NodeId, NodeId], int] = {}
        self.quarantines = 0
        self.rehabilitations = 0

    # ------------------------------------------------------------------
    # Evidence
    # ------------------------------------------------------------------

    def observe(
        self, node: NodeId, neighbor: NodeId, success: bool, now: Time
    ) -> None:
        """Fold one interaction outcome into the link's quality estimate.

        Transitions are per-link and depend only on that link's own
        history, so the order in which a step's observations arrive
        cannot change the end-of-step state.
        """
        config = self.config
        link = (node, neighbor)
        quality = self._quality.get(link, 1.0)
        quality = (1.0 - config.alpha) * quality + (
            config.alpha if success else 0.0
        )
        self._quality[link] = quality
        samples = self._samples.get(link, 0) + 1
        self._samples[link] = samples
        state = self._state.get(link)
        if state is None:
            if samples >= config.min_samples and quality < config.suspect_threshold:
                self._quarantine(link, now, quality)
        elif state == _PROBATION:
            # The pinned probation quality sits exactly at the suspect
            # threshold, so any failure drops below it and re-quarantines
            # immediately, while rehabilitation takes a *streak* of
            # successes — one lucky 5% delivery must not launder a
            # gray-failed neighbor back to trusted.
            if not success:
                self._probation_streak.pop(link, None)
                self._quarantine(link, now, quality)
                return
            streak = self._probation_streak.get(link, 0) + 1
            self._probation_streak[link] = streak
            if (
                streak >= config.probation_successes
                and quality >= config.clear_threshold
            ):
                del self._state[link]
                del self._probation_streak[link]
                self.rehabilitations += 1
                if self.hooks is not None:
                    self.hooks.fire(
                        "neighbor_rehabilitated",
                        time=now,
                        node=node,
                        neighbor=neighbor,
                        quality=quality,
                    )

    def _quarantine(
        self, link: Tuple[NodeId, NodeId], now: Time, quality: float
    ) -> None:
        self._state[link] = _QUARANTINED
        self._probation_at[link] = now + self.config.probation_after
        self.quarantines += 1
        if self.hooks is not None:
            self.hooks.fire(
                "neighbor_quarantined",
                time=now,
                node=link[0],
                neighbor=link[1],
                quality=quality,
            )

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------

    def advance(self, now: Time) -> None:
        """Move due quarantines into probation (called at each step top).

        Iterates in sorted link order so releases are deterministic
        regardless of quarantine insertion order.
        """
        due = [
            link
            for link, at in self._probation_at.items()
            if now >= at and self._state.get(link) == _QUARANTINED
        ]
        for link in sorted(due):
            self._state[link] = _PROBATION
            del self._probation_at[link]
            self._probation_streak.pop(link, None)
            # Pin the estimate at the threshold so the first probation
            # failure re-quarantines in a single step.
            self._quality[link] = self.config.suspect_threshold

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def is_quarantined(self, node: NodeId, neighbor: NodeId) -> bool:
        """Whether ``node`` currently excludes ``neighbor``."""
        return self._state.get((node, neighbor)) == _QUARANTINED

    def filter_targets(
        self, node: NodeId, candidates: Sequence[NodeId]
    ) -> List[NodeId]:
        """``candidates`` minus quarantined neighbors, never empty.

        If every candidate is quarantined the full list comes back
        unfiltered: quarantine degrades preference, it must never
        partition a connected world (the invariant checker holds the
        monitor to exactly this guarantee).
        """
        usable = [
            c for c in candidates if self._state.get((node, c)) != _QUARANTINED
        ]
        return usable if usable else list(candidates)

    def quarantined_neighbors(self, node: NodeId) -> List[NodeId]:
        """Neighbors ``node`` currently quarantines, sorted."""
        return sorted(
            neighbor
            for (observer, neighbor), state in self._state.items()
            if observer == node and state == _QUARANTINED
        )

    def quarantined_count(self) -> int:
        """Directed links currently quarantined, world-wide."""
        return sum(1 for state in self._state.values() if state == _QUARANTINED)

    def max_suspicion(self) -> float:
        """The worst link's suspicion score (``1 - quality``)."""
        if not self._quality:
            return 0.0
        return 1.0 - min(self._quality.values())

    def report(self) -> HealthReport:
        """End-of-run accounting snapshot."""
        return HealthReport(
            quarantines=self.quarantines,
            rehabilitations=self.rehabilitations,
            quarantined_final=self.quarantined_count(),
            links_tracked=len(self._samples),
            worst_quality=min(self._quality.values()) if self._quality else 1.0,
        )
