"""Stigmergic footprints — the paper's main mechanism.

"Every agent leaves behind his footprint on the current node.  Agents
imprint their next target node in the current node … so that subsequent
agents avoid following previous ones" (§II-B).  Unlike ant pheromones
that *attract*, these marks *repel*: an agent about to leave a node skips
candidate targets that fresh footprints on that node already point at,
spreading the team across the network.

A :class:`FootprintBoard` lives (conceptually) on each node: a bounded
list of ``(agent, target, time)`` marks with a freshness window.  The
:class:`StigmergyField` owns one board per node and is what worlds and
agents talk to.  Filtering a candidate set is O(candidates + fresh
marks), honouring the paper's "negligible overhead" claim.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple, ValuesView

from repro.errors import ConfigurationError
from repro.types import AgentId, NodeId, Time

__all__ = ["Footprint", "FootprintBoard", "StigmergyField"]

#: Default number of marks a node's board retains.
DEFAULT_CAPACITY = 16

#: Default steps a mark stays "fresh" (None = never goes stale).
DEFAULT_FRESHNESS: Optional[int] = None


class Footprint(NamedTuple):
    """One mark: who stamped it, where they said they were going, when.

    A named tuple, so stamping one (once per stigmergic decision) costs a
    tuple allocation rather than a frozen dataclass's ``__init__``.
    """

    agent: AgentId
    target: NodeId
    time: Time


class FootprintBoard:
    """The marks on one node: the *latest* mark per agent.

    A later visit by the same agent replaces its earlier mark — the paper
    frames the mechanism as "the mark it left behind during its previous
    visit", not an accumulating trail.  Keeping only the latest intent
    per agent also bounds the veto pressure: stale plans from many past
    visits must not wall a node off from all its neighbours (that was
    measurably harmful to conscientious agents when prototyping this
    reproduction).  ``capacity`` bounds how many distinct agents' marks a
    node retains; the oldest mark is evicted first.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        freshness: Optional[int] = DEFAULT_FRESHNESS,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError(f"board capacity must be >= 1, got {capacity}")
        if freshness is not None and freshness < 1:
            raise ConfigurationError(f"freshness must be >= 1 or None, got {freshness}")
        self.capacity = capacity
        self.freshness = freshness
        self._marks: Dict[AgentId, Footprint] = {}

    def __len__(self) -> int:
        return len(self._marks)

    def stamp(self, agent: AgentId, target: NodeId, time: Time) -> None:
        """Record that ``agent`` is leaving toward ``target`` at ``time``.

        Replaces the agent's previous mark on this node, if any.
        """
        self._marks[agent] = Footprint(agent, target, time)
        if len(self._marks) > self.capacity:
            oldest = min(self._marks, key=lambda a: (self._marks[a].time, a))
            del self._marks[oldest]

    def _stale_before(self, now: Time) -> Optional[Time]:
        """Marks stamped at or before this time are stale (``None``: none are).

        ``now - time < freshness`` is ``time > now - freshness``: one
        compare per mark against a cutoff computed once per query.
        """
        return None if self.freshness is None else now - self.freshness

    def fresh_marks(self, now: Time) -> List[Footprint]:
        """Fresh marks, oldest first (at most one per agent)."""
        cutoff = self._stale_before(now)
        return sorted(
            (m for m in self._marks.values() if cutoff is None or m.time > cutoff),
            key=lambda m: (m.time, m.agent),
        )

    def fresh_targets(self, now: Time) -> Set[NodeId]:
        """Targets pointed at by any fresh mark."""
        cutoff = self._stale_before(now)
        return {
            m.target for m in self._marks.values() if cutoff is None or m.time > cutoff
        }

    def all_marks(self) -> List[Footprint]:
        """Every mark, fresh or stale, oldest first (inspection)."""
        return sorted(self._marks.values(), key=lambda m: (m.time, m.agent))

    def clear(self) -> None:
        """Remove every mark."""
        self._marks.clear()


class StigmergyField:
    """All footprint boards of a network, keyed by node id.

    Boards are created lazily, so an unmarked network costs nothing.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        freshness: Optional[int] = DEFAULT_FRESHNESS,
    ) -> None:
        self.capacity = capacity
        self.freshness = freshness
        self._boards: Dict[NodeId, FootprintBoard] = {}

    def board(self, node: NodeId) -> FootprintBoard:
        """The board on ``node`` (created on first access)."""
        existing = self._boards.get(node)
        if existing is None:
            existing = FootprintBoard(self.capacity, self.freshness)
            self._boards[node] = existing
        return existing

    def stamp(self, node: NodeId, agent: AgentId, target: NodeId, time: Time) -> None:
        """Leave ``agent``'s mark on ``node`` pointing at ``target``."""
        self.board(node).stamp(agent, target, time)

    def avoided_targets(self, node: NodeId, now: Time) -> Set[NodeId]:
        """Candidate targets fresh marks on ``node`` tell agents to avoid."""
        existing = self._boards.get(node)
        if existing is None:
            return set()
        return existing.fresh_targets(now)

    def filter_candidates(
        self, node: NodeId, candidates: Sequence[NodeId], now: Time
    ) -> Sequence[NodeId]:
        """Candidates minus freshly-targeted nodes; falls back when empty.

        The fallback to the unfiltered candidates is essential: an agent
        boxed in (every neighbour recently targeted) must still move, or
        stigmergy would deadlock small networks.  When nothing is vetoed
        the result is ``candidates`` itself, so treat it as read-only.
        """
        avoided = self.avoided_targets(node, now)
        if not avoided:
            return candidates
        filtered = [candidate for candidate in candidates if candidate not in avoided]
        return filtered if filtered else candidates

    def clear_board(self, node: NodeId) -> int:
        """Wipe the board on ``node`` (a crashed node loses its marks).

        Returns how many marks were dropped.
        """
        existing = self._boards.pop(node, None)
        return len(existing) if existing is not None else 0

    def items(self) -> List[Tuple[NodeId, FootprintBoard]]:
        """Every instantiated ``(node, board)`` pair in node order."""
        return [(node, self._boards[node]) for node in sorted(self._boards)]

    def marks_by_node(self) -> Iterator[Tuple[NodeId, ValuesView[Footprint]]]:
        """Every instantiated board's marks by node, in no promised order.

        For bulk scans; each ``marks`` is a live read-only view.
        """
        return ((node, board._marks.values()) for node, board in self._boards.items())

    def total_marks(self) -> int:
        """Total marks across every board (diagnostics)."""
        return sum(len(board) for board in self._boards.values())

    def clear(self) -> None:
        """Wipe every board."""
        self._boards.clear()
