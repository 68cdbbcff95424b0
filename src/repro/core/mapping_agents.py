"""Mapping agents: random, conscientious, super-conscientious.

Each agent follows the paper's per-step protocol (§II-B.1): learn the
out-edges of the current node, learn from co-located peers, choose the
next node, and — if stigmergic — imprint the chosen target on the current
node so later agents avoid following.

Movement policies:

* **random** — uniform choice among current out-neighbours,
* **conscientious** — the out-neighbour never visited / visited least
  recently *first-hand* (a depth-first-search-like sweep),
* **super-conscientious** — same recency rule but over combined first-
  plus second-hand visit knowledge.

Every policy exists in a plain (Minar baseline) and a stigmergic (paper
contribution) flavour, selected by the ``stigmergic`` flag.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.core.knowledge import EdgeIndex, TopologyKnowledge
from repro.core.migration import MigrationState
from repro.core.overhead import OverheadMeter
from repro.core.stigmergy import StigmergyField
from repro.errors import ConfigurationError
from repro.types import AgentId, NodeId, Time

__all__ = [
    "MappingAgent",
    "RandomAgent",
    "ConscientiousAgent",
    "SuperConscientiousAgent",
    "MAPPING_AGENT_KINDS",
    "make_mapping_agent",
]


class MappingAgent:
    """Base class: identity, location, knowledge, and the step protocol.

    ``index`` is the edge index of the agent's knowledge store (see
    :mod:`repro.core.knowledge`); agents that meet must share one, as
    every agent of a mapping world does.  Without it the agent gets an
    index of its own.
    """

    #: Short machine-readable policy name, set by subclasses.
    kind: str = "base"

    def __init__(
        self,
        agent_id: AgentId,
        start: NodeId,
        rng: random.Random,
        node_count: int,
        stigmergic: bool = False,
        epsilon: float = 0.0,
        index: Optional[EdgeIndex] = None,
    ) -> None:
        if not 0.0 <= epsilon <= 1.0:
            raise ConfigurationError(f"epsilon must be in [0, 1], got {epsilon}")
        self.agent_id = agent_id
        self.location = start
        self.stigmergic = stigmergic
        #: Minar's dispersal fix: with probability ``epsilon`` the agent
        #: ignores its policy and moves uniformly at random.  The paper
        #: notes Minar et al. "add randomness to the decision that the
        #: super-conscientious agents make in order to disperse their
        #: agents across the network" (§II-C.3); stigmergy is the paper's
        #: alternative to this hack (compare the abl3 experiment).
        self.epsilon = epsilon
        self.knowledge = TopologyKnowledge(node_count, index)
        self.overhead = OverheadMeter()
        self.migration = MigrationState()
        self._rng = rng

    # -- step protocol --------------------------------------------------

    def observe(
        self, out_neighbors: Sequence[NodeId], time: Time, row: Optional[int] = None
    ) -> None:
        """Phase 1: learn the out-edges of the current node (first-hand).

        ``row``, when given, is ``out_neighbors`` already encoded as bits
        on the knowledge store's index (:meth:`EdgeIndex.row_bits`); the
        world passes the row it caches per topology version, so nothing
        is re-encoded or re-validated.
        """
        if row is None:
            self.knowledge.observe_node(self.location, out_neighbors, time)
        else:
            self.knowledge.observe_row(self.location, row, time)

    def choose_next(
        self,
        out_neighbors: Sequence[NodeId],
        time: Time,
        field: Optional[StigmergyField] = None,
    ) -> Optional[NodeId]:
        """Phase 3: pick the next node, or ``None`` when stranded.

        ``out_neighbors`` must be in ascending id order (the world passes
        its cached sorted rows) and is never modified.  When the agent is
        stigmergic and a field is supplied, fresh footprints on the
        current node veto candidates first (falling back to all
        candidates if the veto empties the set).
        """
        if not out_neighbors:
            return None
        overhead = self.overhead
        overhead.decisions += 1
        candidates = out_neighbors
        if self.stigmergic and field is not None:
            overhead.footprint_lookups += 1
            candidates = field.filter_candidates(self.location, candidates, time)
        overhead.candidates_examined += len(candidates)
        if self.epsilon > 0.0 and self._rng.random() < self.epsilon:
            return self._rng.choice(candidates)
        return self._pick(candidates)

    def leave_footprint(
        self, target: NodeId, time: Time, field: StigmergyField
    ) -> None:
        """Phase 4: imprint the chosen target on the current node."""
        if self.stigmergic:
            self.overhead.footprints_stamped += 1
            field.stamp(self.location, self.agent_id, target, time)

    def move_to(self, target: NodeId) -> None:
        """Commit the move chosen this step."""
        self.location = target

    def reset_for_respawn(self, start: NodeId, time: Time) -> None:
        """Restart this agent fresh at ``start`` after its node crashed.

        The map it carried died with the host node, so a respawned
        mapping agent begins with empty knowledge.  Any in-flight hop
        (retry/backoff state) dies with it; the overhead meter survives
        — it accounts for the whole run, respawns included.  The new
        store keeps the old one's edge index, so the agent can still
        meet its peers.
        """
        del time  # mapping knowledge is re-observed, not time-stamped here
        self.location = start
        knowledge = self.knowledge
        self.knowledge = TopologyKnowledge(knowledge.node_count, knowledge.index)
        self.migration.reset()

    # -- policy ----------------------------------------------------------

    def _pick(self, candidates: Sequence[NodeId]) -> NodeId:
        raise NotImplementedError

    def _least_recent(self, candidates: Sequence[NodeId], combined: bool) -> NodeId:
        """Uniform choice among the candidates with the oldest recency."""
        best = self.knowledge.least_recent(candidates, combined)
        if len(best) == 1:
            return best[0]
        return self._rng.choice(best)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flavour = "stigmergic " if self.stigmergic else ""
        return f"<{flavour}{self.kind} agent {self.agent_id} at node {self.location}>"


class RandomAgent(MappingAgent):
    """Moves to a uniformly random adjacent node each step."""

    kind = "random"

    def _pick(self, candidates: Sequence[NodeId]) -> NodeId:
        return self._rng.choice(candidates)


class ConscientiousAgent(MappingAgent):
    """Prefers the neighbour least recently visited *first-hand*.

    Ignores what peers tell it when moving — second-hand knowledge is
    stored (it counts toward map completeness) but never steers.
    """

    kind = "conscientious"

    def _pick(self, candidates: Sequence[NodeId]) -> NodeId:
        return self._least_recent(candidates, combined=False)


class SuperConscientiousAgent(MappingAgent):
    """Prefers the neighbour least recently visited by *anyone it knows of*."""

    kind = "super-conscientious"

    def _pick(self, candidates: Sequence[NodeId]) -> NodeId:
        return self._least_recent(candidates, combined=True)


#: kind-string -> class, for configs and the CLI.
MAPPING_AGENT_KINDS = {
    RandomAgent.kind: RandomAgent,
    ConscientiousAgent.kind: ConscientiousAgent,
    SuperConscientiousAgent.kind: SuperConscientiousAgent,
}


def make_mapping_agent(
    kind: str,
    agent_id: AgentId,
    start: NodeId,
    rng: random.Random,
    node_count: int,
    stigmergic: bool = False,
    epsilon: float = 0.0,
    index: Optional[EdgeIndex] = None,
) -> MappingAgent:
    """Instantiate a mapping agent by kind name for a ``node_count``-node network."""
    try:
        cls = MAPPING_AGENT_KINDS[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown mapping agent kind {kind!r}; "
            f"expected one of {sorted(MAPPING_AGENT_KINDS)}"
        ) from None
    return cls(
        agent_id, start, rng, node_count, stigmergic=stigmergic, epsilon=epsilon, index=index
    )
