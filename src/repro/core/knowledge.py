"""An agent's knowledge of the network topology.

The paper (after Minar et al.) distinguishes *first-hand* knowledge —
edges and node visits the agent experienced itself — from *second-hand*
knowledge learned from peers during co-located meetings.  Conscientious
agents move using first-hand visit recency only; super-conscientious
agents combine both; the finishing-time metric counts an agent as done
when its *combined* edge knowledge covers the whole network.

Representation.  The network's node count ``n`` is fixed when a store
is built, so a set of directed edges is one Python int used as a
bitset: edge ``(u, v)`` is bit ``u * n + v`` (row-major, the same
packing as :meth:`repro.net.topology.Topology.packed_edges`).  A meeting
then merges whole maps with a handful of word-level ``|``/``&`` over
``n * n`` bits instead of hashing thousands of tuples, most of which
teach the receiver nothing.  Visit recency is two length-``n`` int64
vectors filled with :data:`~repro.types.NEVER`: first-hand (the time of
the agent's own latest observation, overwritten) and second-hand (the
freshest peer report, merged with ``np.maximum``).  Ids outside
``0..n-1`` raise :class:`ValueError` everywhere except the two
hot-path entry points, :meth:`TopologyKnowledge.observe_row` and
:meth:`TopologyKnowledge.least_recent`, whose callers vouch for them.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from typing import FrozenSet, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.types import Edge, NEVER, NodeId, Time

__all__ = ["EdgeBits", "TopologyKnowledge", "pool_knowledge", "popcount"]


def _count_ones(value: int) -> int:
    return bin(value).count("1")


#: Number of set bits of a non-negative int (``int.bit_count`` needs 3.10).
popcount = getattr(int, "bit_count", _count_ones)


def _bad_node(node: NodeId, node_count: int) -> ValueError:
    return ValueError(f"node id {node} outside 0..{node_count - 1}")


def _check_node(node: NodeId, node_count: int) -> None:
    if not 0 <= node < node_count:
        raise _bad_node(node, node_count)


def _edge_position(edge: Edge, node_count: int) -> int:
    source, destination = edge
    _check_node(source, node_count)
    _check_node(destination, node_count)
    return source * node_count + destination


class EdgeBits(AbstractSet):
    """An immutable set of directed edges over ``node_count`` nodes.

    ``bits`` holds edge ``(u, v)`` at bit ``u * node_count + v``;
    ``len()`` is the number of edges, kept beside the bits so asking
    costs nothing.  It is what a knowledge store shares in a meeting and
    the live-edge mask coverage is measured against.  Iteration decodes
    ``(u, v)`` tuples in row-major order; it is for queries and tests,
    not for the meeting path.
    """

    __slots__ = ("bits", "node_count", "_size")

    def __init__(self, bits: int, node_count: int) -> None:
        self.bits = bits
        self.node_count = node_count
        self._size = popcount(bits)

    @classmethod
    def from_edges(cls, edges: Iterable[Edge], node_count: int) -> "EdgeBits":
        """Encode ``(u, v)`` pairs; ids outside ``0..node_count-1`` raise."""
        bits = 0
        for edge in edges:
            bits |= 1 << _edge_position(edge, node_count)
        return cls(bits, node_count)

    @classmethod
    def from_packed(cls, packed: np.ndarray, node_count: int) -> "EdgeBits":
        """Encode a packed ``u * n + v`` array (see ``Topology.packed_edges``)."""
        flags = np.zeros(node_count * node_count, dtype=bool)
        flags[packed] = True
        packed_bytes = np.packbits(flags, bitorder="little").tobytes()
        return cls(int.from_bytes(packed_bytes, "little"), node_count)

    def __len__(self) -> int:
        return self._size

    def __contains__(self, edge: Edge) -> bool:  # type: ignore[override]
        return bool(self.bits >> _edge_position(edge, self.node_count) & 1)

    def __iter__(self) -> Iterator[Edge]:
        node_count = self.node_count
        raw = self.bits.to_bytes((node_count * node_count + 7) // 8, "little")
        flags = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
        sources, destinations = np.divmod(np.flatnonzero(flags), node_count)
        return zip(sources.tolist(), destinations.tolist())

    def _from_iterable(self, edges: Iterable[Edge]) -> FrozenSet[Edge]:
        # The Set mixin's operators build their results through this hook.
        return frozenset(edges)


class TopologyKnowledge:
    """First- and second-hand topology knowledge of one agent."""

    def __init__(self, node_count: int) -> None:
        if node_count < 0:
            raise ValueError(f"node_count must be >= 0, got {node_count}")
        self.node_count = node_count
        #: Every known edge (either hand).
        self._known = 0
        #: Number of distinct edges known first- or second-hand (read-only).
        self.known_edge_count = 0
        #: Per node, the out-neighbour bits the agent has seen itself.
        self._first_rows = [0] * node_count
        self._visits_first = np.full(node_count, NEVER, dtype=np.int64)
        self._visits_second = np.full(node_count, NEVER, dtype=np.int64)

    # ------------------------------------------------------------------
    # First-hand learning
    # ------------------------------------------------------------------

    def observe_node(
        self, node: NodeId, out_neighbors: Iterable[NodeId], time: Time
    ) -> None:
        """Record standing on ``node`` at ``time`` and seeing its out-edges."""
        node_count = self.node_count
        _check_node(node, node_count)
        row = 0
        for neighbor in out_neighbors:
            if not 0 <= neighbor < node_count:
                raise _bad_node(neighbor, node_count)
            row |= 1 << neighbor
        self.observe_row(node, row, time)

    def observe_row(self, node: NodeId, row: int, time: Time) -> None:
        """:meth:`observe_node` with the out-neighbours already encoded.

        ``row`` has bit ``v`` set for each out-neighbour ``v``.  Nothing
        is validated: the caller vouches that ``node`` and every bit of
        ``row`` are ids in ``0..node_count-1`` (the mapping world encodes
        each row once per topology version, from the topology itself).
        """
        self._visits_first[node] = time
        seen = self._first_rows[node]
        fresh = row & ~seen
        if not fresh:
            return  # this row shows nothing it has not shown before
        self._first_rows[node] = row | seen
        # Only this node's row of the big bitset is read and written.
        offset = node * self.node_count
        new = fresh & ~((fresh << offset & self._known) >> offset)
        if new:
            self._known |= new << offset
            self.known_edge_count += popcount(new)

    # ------------------------------------------------------------------
    # Second-hand learning (meetings)
    # ------------------------------------------------------------------

    def absorb(self, edges: EdgeBits, visits: np.ndarray) -> None:
        """Merge peer-provided edges and visit times as second-hand knowledge.

        ``edges`` and ``visits`` are what :meth:`shareable_edges` and
        :meth:`shareable_visits` (or :func:`pool_knowledge`) hand out.
        Visit times keep the most recent report per node; edges
        accumulate monotonically.  Absorbing is idempotent.
        """
        if edges.node_count != self.node_count or visits.shape != (self.node_count,):
            raise ValueError(
                f"payload is for {edges.node_count} nodes / {visits.shape} visits, "
                f"this store for {self.node_count} nodes"
            )
        known = self._known
        merged = known | edges.bits
        if merged != known:  # something in ``offered & ~known`` is new
            self._known = merged
            self.known_edge_count = popcount(merged)
        np.maximum(self._visits_second, visits, out=self._visits_second)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def first_hand_edges(self) -> FrozenSet[Edge]:
        """Edges the agent traversed or observed itself."""
        node_count = self.node_count
        bits = 0
        for node, row in enumerate(self._first_rows):
            if row:
                bits |= row << (node * node_count)
        return frozenset(EdgeBits(bits, node_count))

    @property
    def all_edges(self) -> FrozenSet[Edge]:
        """Every known edge, first- or second-hand."""
        return frozenset(self.shareable_edges())

    def knows_edge(self, edge: Edge) -> bool:
        """Whether ``edge`` is known (either hand)."""
        return bool(self._known >> _edge_position(edge, self.node_count) & 1)

    def count_known(self, edges: EdgeBits) -> int:
        """How many of ``edges`` are known (either hand)."""
        if edges.node_count != self.node_count:
            raise ValueError(
                f"edges are over {edges.node_count} nodes, "
                f"this store over {self.node_count}"
            )
        return popcount(self._known & edges.bits)

    def last_first_hand_visit(self, node: NodeId) -> Time:
        """When the agent itself last stood on ``node`` (``NEVER`` if not)."""
        if 0 <= node < self.node_count:
            return self._visits_first.item(node)
        raise _bad_node(node, self.node_count)

    def last_combined_visit(self, node: NodeId) -> Time:
        """Most recent visit to ``node`` by anyone the agent knows of."""
        if 0 <= node < self.node_count:
            return max(self._visits_first.item(node), self._visits_second.item(node))
        raise _bad_node(node, self.node_count)

    def least_recent(
        self, candidates: Sequence[NodeId], combined: bool = False
    ) -> List[NodeId]:
        """The candidates with the oldest visit recency, in candidate order.

        Recency is first-hand (:meth:`last_first_hand_visit`), or with
        ``combined`` the freshest of either hand
        (:meth:`last_combined_visit`).  Read straight from the visit
        vectors for the movement policies' hot path, so ids are not
        validated: ``candidates`` must be non-empty and in range.
        """
        first = self._visits_first.item
        second = self._visits_second.item if combined else None
        best_time = None
        best: List[NodeId] = []
        for candidate in candidates:
            visited = first(candidate)
            if second is not None:
                reported = second(candidate)
                if reported > visited:
                    visited = reported
            if best_time is None or visited < best_time:
                best_time = visited
                best = [candidate]
            elif visited == best_time:
                best.append(candidate)
        return best

    def completeness(self, total_edges: int) -> float:
        """Fraction of the network's edges this agent knows."""
        if total_edges <= 0:
            return 1.0
        return min(1.0, self.known_edge_count / total_edges)

    # ------------------------------------------------------------------
    # Sharing (what a peer receives in a meeting)
    # ------------------------------------------------------------------

    def shareable_edges(self) -> EdgeBits:
        """Edges to hand to a peer — everything known, per Minar's model.

        An immutable snapshot: later learning does not change it.
        """
        return EdgeBits(self._known, self.node_count)

    def shareable_visits(self) -> np.ndarray:
        """Visit recency to hand to a peer, as a fresh length-``n`` vector.

        A peer cares about the freshest visit per node regardless of
        which hand it is on our side, so this is the combined view;
        ``NEVER`` marks nodes nobody the agent knows of has visited.
        """
        return np.maximum(self._visits_first, self._visits_second)


def pool_knowledge(
    stores: Iterable[TopologyKnowledge],
) -> Tuple[EdgeBits, np.ndarray]:
    """The union of the stores' edges and their freshest visit per node.

    What a meeting broadcasts: every member absorbs this one payload.
    """
    stores = iter(stores)
    first = next(stores)
    bits = first._known
    visits = first.shareable_visits()
    for store in stores:
        if store.node_count != first.node_count:
            raise ValueError("cannot pool stores over different node counts")
        bits |= store._known
        np.maximum(visits, store._visits_first, out=visits)
        np.maximum(visits, store._visits_second, out=visits)
    return EdgeBits(bits, first.node_count), visits
