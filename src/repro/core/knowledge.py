"""An agent's knowledge of the network topology.

The paper (after Minar et al.) distinguishes *first-hand* knowledge —
edges and node visits the agent experienced itself — from *second-hand*
knowledge learned from peers during co-located meetings.  Conscientious
agents move using first-hand visit recency only; super-conscientious
agents combine both; the finishing-time metric counts an agent as done
when its *combined* edge knowledge covers the whole network.

Representation.  An agent can only learn edges that exist, so a set of
directed edges is one Python int used as a bitset over an
:class:`EdgeIndex`: the network's edges, each with its own bit.  The
mapping world builds one index from the sorted packed edge array
(:meth:`repro.net.topology.Topology.packed_edges`) and every agent's
store shares it, so edge ``(u, v)`` is the bit at its position in that
array, and a node's whole row is one contiguous run of bits.  An edge
outside the initial list (one that appears after a fault or a
recovery) gets the next free bit; positions are never reused or moved,
so bits from any moment stay valid.  A meeting then merges whole maps
with a handful of word-level ``|`` over as many bits as the network has
edges (~2,200 for the paper's 300-node network, not its 90,000 node
pairs).  Visit recency is two length-``n`` int64 vectors filled with
:data:`~repro.types.NEVER`: first-hand (the time of the agent's own
latest observation, overwritten) and second-hand (the freshest peer
report, merged with ``np.maximum``).  Stores on different indexes
cannot pool or absorb each other's bits and raise :class:`ValueError`.
Ids outside ``0..n-1`` raise :class:`ValueError` everywhere except the
two hot-path entry points, :meth:`TopologyKnowledge.observe_row` and
:meth:`TopologyKnowledge.least_recent`, whose callers vouch for them.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Set as AbstractSet
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.types import Edge, NEVER, NodeId, Time

__all__ = ["EdgeBits", "EdgeIndex", "TopologyKnowledge", "pool_knowledge", "popcount"]


def _count_ones(value: int) -> int:
    return bin(value).count("1")


#: Number of set bits of a non-negative int (``int.bit_count`` needs 3.10).
popcount = getattr(int, "bit_count", _count_ones)


def _bad_node(node: NodeId, node_count: int) -> ValueError:
    return ValueError(f"node id {node} outside 0..{node_count - 1}")


def _check_node(node: NodeId, node_count: int) -> None:
    if not 0 <= node < node_count:
        raise _bad_node(node, node_count)


class EdgeIndex:
    """Bit positions for the directed edges of one ``node_count``-node network.

    ``packed`` is a sorted packed ``u * n + v`` edge array (see
    ``Topology.packed_edges``); its edges take bits ``0..len-1`` in
    array order, so each node's initial row is one contiguous run of
    bits.  Any other edge is appended: it takes the next free bit the
    first time it is encoded.  Append-only — a position never changes
    once given out.
    """

    __slots__ = ("node_count", "_initial", "_starts", "_targets", "_appended")

    def __init__(self, node_count: int, packed: Optional[np.ndarray] = None) -> None:
        if node_count < 0:
            raise ValueError(f"node_count must be >= 0, got {node_count}")
        initial = np.array([] if packed is None else packed, dtype=np.int64)
        if initial.size and (
            initial[0] < 0
            or initial[-1] >= node_count * node_count
            or bool(np.any(initial[1:] <= initial[:-1]))
        ):
            raise ValueError("packed edges must be sorted, distinct and in range")
        self.node_count = node_count
        self._initial = initial
        #: node ``u``'s initial row is ``_targets[_starts[u]:_starts[u + 1]]``.
        self._starts: List[int] = np.searchsorted(
            initial, np.arange(node_count + 1) * node_count
        ).tolist()
        self._targets: List[NodeId] = (initial % max(node_count, 1)).tolist()
        #: packed key -> position of each edge outside the initial list,
        #: in position order.
        self._appended: Dict[int, int] = {}

    def __len__(self) -> int:
        return self._initial.size + len(self._appended)

    def find(self, edge: Edge) -> Optional[int]:
        """The bit of ``edge``, or ``None`` if it has none yet; ids are validated."""
        source, destination = edge
        node_count = self.node_count
        _check_node(source, node_count)
        _check_node(destination, node_count)
        start, stop = self._starts[source], self._starts[source + 1]
        at = bisect_left(self._targets, destination, start, stop)
        if at < stop and self._targets[at] == destination:
            return at
        return self._appended.get(source * node_count + destination)

    def position(self, edge: Edge) -> int:
        """The bit of ``edge``, appending it if new; ids are validated."""
        found = self.find(edge)
        if found is None:
            source, destination = edge
            found = self._appended[source * self.node_count + destination] = len(self)
        return found

    def row_bits(self, node: NodeId, neighbors: Sequence[NodeId]) -> int:
        """The bits of ``node``'s out-edges to ``neighbors`` (ascending ids).

        A row equal to ``node``'s initial row is one contiguous mask;
        any other is encoded edge by edge through :meth:`position`.
        """
        start, stop = self._starts[node], self._starts[node + 1]
        if neighbors == self._targets[start:stop]:
            return ((1 << (stop - start)) - 1) << start
        bits = 0
        for neighbor in neighbors:
            bits |= 1 << self.position((node, neighbor))
        return bits

    def packed_bits(self, packed: np.ndarray) -> int:
        """The bits of a packed ``u * n + v`` edge array, appending new edges."""
        packed = np.asarray(packed, dtype=np.int64)
        initial = self._initial
        positions = np.searchsorted(initial, packed)
        hit = positions < initial.size
        hit[hit] = initial[positions[hit]] == packed[hit]
        for miss in np.flatnonzero(~hit).tolist():
            positions[miss] = self.position(divmod(int(packed[miss]), self.node_count))
        flags = np.zeros(len(self), dtype=bool)
        flags[positions] = True
        return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")

    def decode(self, bits: int) -> Iterator[Edge]:
        """The ``(u, v)`` edges of ``bits``, in row-major order."""
        appended = np.fromiter(self._appended, dtype=np.int64, count=len(self._appended))
        keys = np.concatenate([self._initial, appended])
        raw = bits.to_bytes((keys.size + 7) // 8, "little")
        flags = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
        chosen = np.sort(keys[np.flatnonzero(flags)])
        sources, destinations = np.divmod(chosen, max(self.node_count, 1))
        return zip(sources.tolist(), destinations.tolist())


class EdgeBits(AbstractSet):
    """An immutable set of directed edges, as bits over an :class:`EdgeIndex`.

    ``len()`` is the number of edges, kept beside the bits so asking
    costs nothing.  It is what a knowledge store shares in a meeting and
    the live-edge mask coverage is measured against.  Iteration decodes
    ``(u, v)`` tuples in row-major order; it is for queries and tests,
    not for the meeting path.
    """

    __slots__ = ("bits", "index", "_size")

    def __init__(self, bits: int, index: EdgeIndex) -> None:
        self.bits = bits
        self.index = index
        self._size = popcount(bits)

    @classmethod
    def from_edges(cls, edges: Iterable[Edge], index: EdgeIndex) -> "EdgeBits":
        """Encode ``(u, v)`` pairs; ids outside ``0..node_count-1`` raise."""
        bits = 0
        for edge in edges:
            bits |= 1 << index.position(edge)
        return cls(bits, index)

    @classmethod
    def from_packed(cls, packed: np.ndarray, index: EdgeIndex) -> "EdgeBits":
        """Encode a packed ``u * n + v`` array (see ``Topology.packed_edges``)."""
        return cls(index.packed_bits(packed), index)

    def __len__(self) -> int:
        return self._size

    def __contains__(self, edge: Edge) -> bool:  # type: ignore[override]
        found = self.index.find(edge)
        return found is not None and bool(self.bits >> found & 1)

    def __iter__(self) -> Iterator[Edge]:
        return self.index.decode(self.bits)

    def _from_iterable(self, edges: Iterable[Edge]) -> FrozenSet[Edge]:
        # The Set mixin's operators build their results through this hook.
        return frozenset(edges)


def _index_mismatch(what: str, index: EdgeIndex, store: "TopologyKnowledge") -> ValueError:
    return ValueError(
        f"{what} are on another edge index ({index.node_count} nodes) "
        f"than this store ({store.node_count} nodes)"
    )


class TopologyKnowledge:
    """First- and second-hand topology knowledge of one agent.

    ``index`` is the edge index the store's bits are over; stores that
    meet must share one.  Without it the store gets an empty index of
    its own.
    """

    def __init__(self, node_count: int, index: Optional[EdgeIndex] = None) -> None:
        if node_count < 0:
            raise ValueError(f"node_count must be >= 0, got {node_count}")
        if index is None:
            index = EdgeIndex(node_count)
        elif index.node_count != node_count:
            raise ValueError(
                f"index is over {index.node_count} nodes, this store over {node_count}"
            )
        self.node_count = node_count
        self.index = index
        #: Every known edge (either hand).
        self._known = 0
        #: Number of distinct edges known first- or second-hand (read-only).
        self.known_edge_count = 0
        #: The edges the agent has seen itself.
        self._first = 0
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
        out_neighbors = list(out_neighbors)
        for neighbor in out_neighbors:
            _check_node(neighbor, node_count)
        position = self.index.position
        row = 0
        for neighbor in out_neighbors:
            row |= 1 << position((node, neighbor))
        self.observe_row(node, row, time)

    def observe_row(self, node: NodeId, row: int, time: Time) -> None:
        """:meth:`observe_node` with the out-edges already encoded.

        ``row`` holds the bits of ``node``'s out-edges on this store's
        index (:meth:`EdgeIndex.row_bits`).  Nothing is validated: the
        caller vouches that ``node`` is an id in ``0..node_count-1`` and
        that ``row`` came from this index (the mapping world encodes
        each row once per topology version, from the topology itself).
        """
        self._visits_first[node] = time
        first = self._first
        seen = first | row
        if seen == first:
            return  # this row shows nothing it has not shown before
        self._first = seen
        known = self._known
        merged = known | row
        if merged != known:
            self._known = merged
            self.known_edge_count += popcount(merged ^ known)

    # ------------------------------------------------------------------
    # Second-hand learning (meetings)
    # ------------------------------------------------------------------

    def absorb(self, edges: EdgeBits, visits: np.ndarray) -> None:
        """Merge peer-provided edges and visit times as second-hand knowledge.

        ``edges`` and ``visits`` are what :meth:`shareable_edges` and
        :meth:`shareable_visits` (or :func:`pool_knowledge`) hand out,
        from a store on this store's index.  Visit times keep the most
        recent report per node; edges accumulate monotonically.
        Absorbing is idempotent.
        """
        if edges.index is not self.index:
            raise _index_mismatch("payload edges", edges.index, self)
        if visits.shape != (self.node_count,):
            raise ValueError(
                f"payload has {visits.shape} visits, this store {self.node_count} nodes"
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
        return frozenset(self.index.decode(self._first))

    @property
    def all_edges(self) -> FrozenSet[Edge]:
        """Every known edge, first- or second-hand."""
        return frozenset(self.index.decode(self._known))

    def knows_edge(self, edge: Edge) -> bool:
        """Whether ``edge`` is known (either hand)."""
        found = self.index.find(edge)
        return found is not None and bool(self._known >> found & 1)

    def count_known(self, edges: EdgeBits) -> int:
        """How many of ``edges`` are known (either hand)."""
        if edges.index is not self.index:
            raise _index_mismatch("edges", edges.index, self)
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
        return EdgeBits(self._known, self.index)

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
    The stores must share one edge index.
    """
    stores = iter(stores)
    first = next(stores)
    index = first.index
    bits = first._known
    visits = first.shareable_visits()
    for store in stores:
        if store.index is not index:
            raise ValueError("cannot pool stores on different edge indexes")
        bits |= store._known
        np.maximum(visits, store._visits_first, out=visits)
        np.maximum(visits, store._visits_second, out=visits)
    return EdgeBits(bits, index), visits
