"""The link topology induced by node positions and radio ranges.

There is a directed link ``u -> v`` iff ``v`` lies within ``u``'s current
radio range.  With Minar-style homogeneous radios this relation is
symmetric; with the paper's heterogeneous (and battery-shrinking) ranges
it generally is not, giving the directed graph of §II-A.

Every refresh runs one link kernel, :func:`link_edges`: it maps node
positions, ranges and the live senders and receivers to the sorted
array of packed ``u * n + v`` int64 edges.  The kernel evaluates the
serial predicate ``dx*dx + dy*dy <= r*r`` (IEEE doubles, ``r`` the
sender's range) over candidate pairs, choosing the candidates from the
input's size: a dense senders x receivers block for small inputs (the
paper's 60-node QUICK MANET), a sorted column grid for larger ones (its
250-node MANET and up).  The sharded runtime's tiles call the same
kernel over their halos.

:class:`Topology` keeps that sorted packed array as its only adjacency.
Sorted by ``u * n + v``, it is CSR by construction: node ``u``'s
out-neighbours are the entries in ``[u * n, (u + 1) * n)``, ascending.
Consumers read it as rows through an :class:`AdjacencyView`, one per
changed epoch, which builds a node's row the first time it is indexed;
in-neighbours are answered on demand from the array.  A refresh
recomputes the array and diffs it against the previous one
(:func:`edge_delta`, a sorted merge) to count the edges it added and
removed.  A refresh that finds no position, range or fault change does
no edge work at all.  Pinned graphs (:mod:`repro.net.manual`) go
through the same apply step.

The nodes' kinematic state — positions, velocities, battery levels and
radio ranges — lives in one structure-of-arrays :class:`Fleet` per
topology, which the nodes, batteries and mobility models read and write.
:meth:`Topology.advance` steps the whole fleet as array operations, and
a refresh finds what moved by comparing the fleet's columns with copies
taken at the previous refresh.

The rebuild-from-scratch path (``incremental=False`` or
:meth:`Topology.force_full_rebuild`) is the reference implementation, a
sorted-x sweep (:func:`_sweep_edges`) that shares no code with the
kernel: it takes positions and ranges read straight from the nodes,
sorts the live receivers by x and evaluates the same predicate over each
sender's x-window.  The two are bit-identical because both evaluate that
predicate exactly; the test suite property-checks the sweep against a
pure-Python brute force and the engine against the sweep on randomized
mobility and fault traces, and :meth:`Topology.consistency_problems`
lets the runtime invariant checker compare the packed array and every
row served from it against the sweep every step.  The sweep is a pure
function of its inputs, so the checker re-runs it only when the inputs
it reads from the nodes that step differ from the previous step's.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as _np

from repro.errors import TopologyError
from repro.net.battery import ExponentialDrain, LinearDrain
from repro.net.geometry import Arena
from repro.net.graphutils import Adjacency, is_strongly_connected
from repro.net.mobility import RandomVelocity, Stationary
from repro.net.node import Node
from repro.net.radio import BatteryCoupledRange, FixedRange, HeterogeneousRange
from repro.types import Edge, NodeId

__all__ = [
    "AdjacencyView",
    "Fleet",
    "Topology",
    "TopologyStats",
    "edge_delta",
    "link_edges",
]

#: senders x receivers pairs up to which :func:`link_edges` evaluates
#: every pair densely; beyond it the column grid examines fewer pairs at
#: a higher cost per pair.  Set from the measured crossover (between 150
#: and 200 nodes on the paper's MANET shape; DESIGN.md, "The link
#: kernel's two evaluations").
_DENSE_MAX_PAIRS = 160 * 160


@dataclass
class TopologyStats:
    """Always-on counters describing how the engine keeps itself current."""

    #: directed edges added by refreshes (full rebuilds not counted).
    edges_added: int = 0
    #: directed edges removed by refreshes.
    edges_removed: int = 0


# ----------------------------------------------------------------------
# The link kernel
# ----------------------------------------------------------------------

class _DenseWorkspace(threading.local):
    """The dense evaluation's scratch buffers, one set per thread.

    Float64 ``d2``/``dy`` blocks and the bool mask, grown on demand up
    to _DENSE_MAX_PAIRS.  They carry nothing between calls: each call
    overwrites the slice it reads before returning fresh arrays.  They
    are per thread because concurrent simulations (the service runs
    jobs as threads) would otherwise overwrite each other's slices.
    """

    def __init__(self) -> None:
        self.f = _np.empty(0, dtype=_np.float64)
        self.b = _np.empty(0, dtype=bool)


_dense_ws = _DenseWorkspace()


def link_edges(x, y, r, senders, receivers):
    """Sorted packed ``u * n + v`` edges from positions and ranges.

    ``x``/``y``/``r`` are float64 arrays over all ``n`` nodes;
    ``senders`` and ``receivers`` are ascending int64 id arrays.  There
    is an edge ``u -> v`` for every sender ``u`` with ``r[u] > 0`` and
    receiver ``v != u`` with ``dx*dx + dy*dy <= r[u]*r[u]`` — the serial
    predicate, bit for bit.  Which evaluation runs depends only on the
    number of pairs; both return the same array.
    """
    on = r[senders] > 0.0
    if not on.all():
        senders = senders[on]
    if not senders.size or not receivers.size:
        return _np.empty(0, dtype=_np.int64)
    if senders.size * receivers.size <= _DENSE_MAX_PAIRS:
        return _dense_edges(x, y, r, senders, receivers)
    return _grid_edges(x, y, r, senders, receivers)


def _dense_edges(x, y, r, senders, receivers):
    """Every sender against every receiver, in the reusable workspace.

    Fresh n^2 temporaries page-fault at these sizes, so each array op
    writes into a slice of the thread's workspace instead.
    """
    ws = _dense_ws
    s = senders.size
    m = receivers.size
    size = s * m
    if ws.b.size < size:
        ws.f = _np.empty(2 * size, dtype=_np.float64)
        ws.b = _np.empty(size, dtype=bool)
    d2 = ws.f[:size].reshape(s, m)
    dy = ws.f[size : 2 * size].reshape(s, m)
    mask = ws.b[:size].reshape(s, m)
    _np.subtract(x[senders][:, None], x[receivers], out=d2)
    _np.multiply(d2, d2, out=d2)
    _np.subtract(y[senders][:, None], y[receivers], out=dy)
    _np.multiply(dy, dy, out=dy)
    _np.add(d2, dy, out=d2)
    reach = r[senders]
    _np.less_equal(d2, (reach * reach)[:, None], out=mask)
    row, col = _np.divmod(_np.flatnonzero(mask), m)
    u = senders[row]
    v = receivers[col]
    keep = u != v
    return u[keep] * x.size + v[keep]


def _grid_edges(x, y, r, senders, receivers):
    """Sorted column-grid ragged gather: only nearby pairs are examined.

    Receivers are sorted by ``column * height + y`` (columns twice the
    mean sender range wide, ``height`` taller than the occupied span),
    so the receivers of one column within a sender's padded y-range
    form one contiguous run.  Each sender gathers one run per column
    its padded disk spans.  Columns and padding only choose candidates
    (every step is monotone, and the padding dwarfs coordinate
    rounding, so no in-range receiver can fall outside its run); the
    predicate alone decides each edge.
    """
    n = x.size
    reach = r[senders]
    xr = x[receivers]
    yr = y[receivers]
    x0 = float(xr.min())
    x1 = float(xr.max())
    y0 = float(yr.min())
    y1 = float(yr.max())
    slack = 1e-9 * max(1.0, abs(x0), abs(x1), abs(y0), abs(y1))
    pad = reach * 1.000001
    pad += slack
    # Floors keep every column index (and so the int64 keys) bounded,
    # however small the ranges are next to the arena.
    width = max(2.0 * float(reach.sum()) / reach.size, (x1 - x0) / 2**20, slack)
    height = y1 - y0 + 2.0 * float(pad.max()) + 1.0
    xc = xr - x0
    yc = yr - y0
    col = (xc / width).astype(_np.int64)
    last = int(col.max())
    key = col * height
    key += yc
    order = _np.argsort(key)
    cand = receivers[order]
    key = key[order]
    xc = x[senders] - x0
    yc = y[senders] - y0
    first = ((xc - pad) / width).astype(_np.int64)
    spans = ((xc + pad) / width).astype(_np.int64)
    _np.maximum(first, 0, out=first)
    _np.minimum(spans, last, out=spans)
    spans -= first
    spans += 1
    _np.maximum(spans, 0, out=spans)
    starts = _np.cumsum(spans) - spans
    base = _np.repeat(first - starts, spans)
    base += _np.arange(base.size)
    base = base * height
    lo = _np.searchsorted(key, base + _np.repeat(yc - pad, spans), "left")
    lens = _np.searchsorted(key, base + _np.repeat(yc + pad, spans), "right")
    lens -= lo
    starts = _np.cumsum(lens) - lens
    at = _np.repeat(lo - starts, lens)
    at += _np.arange(at.size)
    v = cand[at]
    u = _np.repeat(_np.repeat(senders, spans), lens)
    dx = x[v] - x[u]
    dy = y[v] - y[u]
    reach = r[u]
    dx *= dx
    dy *= dy
    dx += dy
    reach *= reach
    ok = dx <= reach
    ok &= u != v
    u *= n
    u += v
    edges = u[ok]
    edges.sort()
    return edges


def edge_delta(new, old):
    """``(added, removed)`` between two sorted unique packed edge arrays."""
    if not old.size or not new.size:
        return new, old
    at = _np.searchsorted(old, new)
    _np.minimum(at, old.size - 1, out=at)
    kept = old[at] == new
    gone = _np.ones(old.size, dtype=bool)
    gone[at[kept]] = False
    return new[~kept], old[gone]


def _csr_lists(edges, n: int) -> Tuple[List[int], List[NodeId]]:
    """``(bounds, targets)`` of a sorted packed ``u * n + v`` array.

    Node ``u``'s ascending row is ``targets[bounds[u] : bounds[u + 1]]``.
    """
    bounds = _np.searchsorted(edges, _np.arange(0, n * n + 1, n)).tolist()
    return bounds, (edges % n).tolist()


class AdjacencyView(dict):
    """Every node's ascending out-neighbours in one sorted packed array.

    Indexed by node id ``0..n-1`` like a list of rows, and iterates and
    measures like one.  ``edges`` is a sorted packed ``u * n + v``
    array, so each node's row is one contiguous run of it: the first
    index of any row turns the array into one list of targets and its
    row bounds, and each row is sliced from that list the first time it
    is indexed, then kept.  A consumer that reads a few rows pays for a
    few rows.  The mapping underneath holds exactly the rows served so
    far (:meth:`served`); a repeat index is a plain dict lookup.
    """

    def __init__(self, edges, n: int) -> None:
        super().__init__()
        self._edges = edges
        self._n = n
        self._bounds: Optional[List[int]] = None
        self._targets: Optional[List[NodeId]] = None

    def __missing__(self, node: NodeId) -> List[NodeId]:
        if not 0 <= node < self._n:
            raise IndexError(f"no row for node {node}")
        if self._bounds is None:
            self._bounds, self._targets = _csr_lists(self._edges, self._n)
        bounds = self._bounds
        row = self[node] = self._targets[bounds[node] : bounds[node + 1]]
        return row

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[List[NodeId]]:
        return (self[node] for node in range(self._n))

    def served(self) -> List[Tuple[NodeId, List[NodeId]]]:
        """The rows indexed so far, as ``(node, row)`` by node ascending."""
        return sorted(dict.items(self))


def _sweep_edges(x, y, r, down, blocked):
    """The sorted packed ``u * n + v`` edges, computed from scratch.

    The reference implementation every other path must match, and
    deliberately a different algorithm from :func:`link_edges`: a pure
    function of the float64 positions and ranges ``x``/``y``/``r`` over
    all nodes, the set of ``down`` node ids and the set of ``blocked``
    ``(u, v)`` links.  It sorts the live receivers by x and gathers each
    live sender's receivers inside an x-window of its range.  The window
    is padded by a relative margin far above coordinate rounding, so it
    can only add candidates; the predicate ``dx*dx + dy*dy <= r*r``
    alone decides each edge.  Blocked edges are dropped last.
    """
    n = x.size
    live = _np.ones(n, dtype=bool)
    if down:
        live[list(down)] = False
    receivers = _np.flatnonzero(live)
    receivers = receivers[_np.argsort(x[receivers], kind="stable")]
    xs = x[receivers]
    senders = _np.flatnonzero(live & (r > 0.0))
    xu = x[senders]
    pad = r[senders] * (1.0 + 1e-9) + 1e-9 * max(1.0, float(_np.abs(x).max()))
    lo = _np.searchsorted(xs, xu - pad, "left")
    counts = _np.searchsorted(xs, xu + pad, "right") - lo
    # Sender k's candidates are receivers[lo[k] : lo[k] + counts[k]].
    u = _np.repeat(senders, counts)
    at = _np.arange(u.size) + _np.repeat(lo - (_np.cumsum(counts) - counts), counts)
    v = receivers[at]
    dx = x[u] - x[v]
    dy = y[u] - y[v]
    ok = dx * dx + dy * dy <= r[u] * r[u]
    ok &= u != v
    edges = (u * n + v)[ok]
    if blocked:
        packed = _np.fromiter((s * n + d for s, d in blocked), _np.int64, len(blocked))
        edges = edges[~_np.isin(edges, packed)]
    edges.sort()
    return edges


@dataclass
class _OracleRun:
    """One evaluation of :func:`_sweep_edges`: its inputs and its results.

    The inputs are private copies (fresh reads and frozen sets), so
    nothing the engine does can change them after the fact.
    """

    x: object
    y: object
    r: object
    down: FrozenSet[NodeId]
    blocked: FrozenSet[Edge]
    edges: object
    #: :func:`_csr_lists` of ``edges``, built the first time served
    #: rows are checked against them.
    csr: Optional[Tuple[List[int], List[NodeId]]] = None

    def same_inputs(self, x, y, r, down, blocked) -> bool:
        """Whether the sweep of these inputs is this run's sweep.

        Element-wise float equality: ``0.0`` and ``-0.0`` (the only
        non-identical equal pair; NaN never matches) give the predicate,
        the sort and the windows the same outcome.
        """
        return (
            self.down == down
            and self.blocked == blocked
            and _np.array_equal(x, self.x)
            and _np.array_equal(y, self.y)
            and _np.array_equal(r, self.r)
        )


class Fleet:
    """The kinematic state of a topology's nodes, one float64 column each.

    ``x``/``y`` (positions), ``vx``/``vy`` (velocities of
    :class:`~repro.net.mobility.RandomVelocity` nodes, 0 elsewhere),
    ``level`` (battery levels) and ``r`` (radio ranges), indexed by node
    id.  The fleet is the only owner of the first five: once it adopts a
    node, the node, its battery and its mobility model read and write
    these columns.  ``r`` is derived from the radios, which keep their
    own parameters: it is re-read through them at adoption and after
    every :meth:`Topology.invalidate`.  Mobility and drain models are
    fixed at node construction, so nodes are sorted by model once.  The
    fleet keeps node ids, never nodes: a topology holds no cycle.
    """

    def __init__(self, nodes: Sequence[Node]) -> None:
        n = len(nodes)
        self.x = _np.array([node.position.x for node in nodes], dtype=_np.float64)
        self.y = _np.array([node.position.y for node in nodes], dtype=_np.float64)
        self.level = _np.array([node.battery.level for node in nodes], dtype=_np.float64)
        self.vx = _np.zeros(n)
        self.vy = _np.zeros(n)
        self.r = _np.empty(n)
        movers: List[NodeId] = []
        #: nodes moved, or whose battery is stepped, by their own model.
        self._walkers: List[NodeId] = []
        self._stepped: List[NodeId] = []
        drains: Dict[Tuple[bool, float], List[NodeId]] = {}
        for node in nodes:
            i = node.node_id
            battery = node.battery
            mobility = node.mobility
            if node._fleet is not None or battery._fleet is not None:
                raise TopologyError(f"node {i} or its battery already belongs to a topology")
            node._fleet = battery._fleet = self
            battery._slot = i
            if isinstance(mobility, RandomVelocity):
                if mobility._fleet is not None:
                    raise TopologyError(f"node {i}'s mobility model already moves another node")
                self.vx[i], self.vy[i] = mobility._vx, mobility._vy
                mobility._fleet, mobility._slot = self, i
            if type(mobility) is RandomVelocity:
                movers.append(i)
            elif type(mobility) is not Stationary:
                self._walkers.append(i)
            if node._battery_drains:
                model = battery._drain_model
                if type(model) is LinearDrain:
                    drains.setdefault((True, model.per_step), []).append(i)
                elif type(model) is ExponentialDrain:
                    drains.setdefault((False, model._keep), []).append(i)
                else:
                    self._stepped.append(i)
        self._movers = _np.array(movers, dtype=_np.int64)
        #: ``(linear, parameter, ids)``: ``per_step`` for a linear drain,
        #: ``1 - rate`` for an exponential one.
        self._drains = [
            (linear, param, _np.array(ids, dtype=_np.int64))
            for (linear, param), ids in drains.items()
        ]
        self.read_radios(nodes)

    def read_radios(self, nodes: Sequence[Node]) -> None:
        """Re-read every range, and what :meth:`step` needs, from the radios.

        :meth:`step` recomputes the ranges of stock battery-coupled radios
        on their own node's draining battery, so this keeps their
        parameters.  ``volatile`` says some other radio's range can change
        without an invalidate (another radio class, or a coupled radio on
        another node's battery): then every read of the ranges re-reads.
        """
        self.r[:] = [node.radio.current_range() for node in nodes]
        coupled = []
        self.volatile = False
        for node in nodes:
            kind = type(node.radio)
            if kind is BatteryCoupledRange and node.radio.battery is node.battery:
                if node._battery_drains:
                    coupled.append(node)
            elif kind is not FixedRange and kind is not HeterogeneousRange:
                self.volatile = True
        radios = [node.radio for node in coupled]
        self._coupled = _np.array([node.node_id for node in coupled], dtype=_np.int64)
        self._coupled_base = _np.array([radio.base for radio in radios], dtype=_np.float64)
        self._coupled_exponent = [radio.exponent for radio in radios]
        self._coupled_floor = _np.array([radio.floor for radio in radios], dtype=_np.float64)

    def step(self, nodes: Sequence[Node], arena: Arena) -> None:
        """Advance every node one step: its battery drains, then it moves.

        Equal, column by column, to :meth:`Node.advance` on each node.
        Stock models step as array operations, bit-identical to the
        scalar ones: linear and exponential drains, the ranges of the
        coupled radios :meth:`read_radios` kept, and straight-line motion
        inside the arena.  A node that would cross the boundary reflects
        through its own :class:`~repro.net.mobility.RandomVelocity`, and
        any other mobility or drain model steps its node itself.
        """
        level = self.level
        for linear, param, ids in self._drains:
            levels = level[ids]
            if linear:
                _np.subtract(levels, param, out=levels)
            else:
                _np.multiply(levels, param, out=levels)
            _np.maximum(levels, 0.0, out=levels)
            _np.minimum(levels, 1.0, out=levels)
            level[ids] = levels
        for i in self._stepped:
            nodes[i].battery.step()
        ids = self._coupled
        if ids.size:
            # ``BatteryCoupledRange.current_range()`` term by term: Python's
            # ``**`` per level, since ``np.power`` and ``np.sqrt`` differ
            # from it in the last bit for some levels.
            scaled = _np.fromiter(
                map(pow, level[ids].tolist(), self._coupled_exponent), _np.float64, ids.size
            )
            _np.multiply(self._coupled_base, scaled, out=scaled)
            _np.maximum(self._coupled_floor, scaled, out=scaled)
            self.r[ids] = scaled
        movers = self._movers
        walkers = self._walkers
        if movers.size:
            x = self.x[movers]
            x += self.vx[movers]
            y = self.y[movers]
            y += self.vy[movers]
            out = (x < 0.0) | (x > arena.width) | (y < 0.0) | (y > arena.height)
            if out.any():
                inside = ~out
                self.x[movers[inside]] = x[inside]
                self.y[movers[inside]] = y[inside]
                walkers = movers[out].tolist() + walkers
            else:
                self.x[movers] = x
                self.y[movers] = y
        for i in walkers:
            node = nodes[i]
            node.position = node.mobility.move(node.position, arena)


class Topology:
    """Directed wireless topology over a fixed set of nodes."""

    def __init__(
        self, nodes: Sequence[Node], arena: Arena, incremental: bool = True
    ) -> None:
        if not nodes:
            raise TopologyError("a topology needs at least one node")
        ids = [node.node_id for node in nodes]
        if ids != list(range(len(nodes))):
            raise TopologyError("node ids must be contiguous 0..n-1 in order")
        self.nodes: List[Node] = list(nodes)
        self.arena = arena
        #: the nodes' kinematic state, which the nodes read and write.
        self.fleet = Fleet(self.nodes)
        #: whether a radio may have changed since the fleet last read them.
        self._radios_stale = False
        #: sorted packed ``u * n + v`` edges: the adjacency itself.
        self._edges = _np.empty(0, dtype=_np.int64)
        #: the rows of ``_edges``, a new view on first read after a change.
        self._view: Optional[AdjacencyView] = None
        self._dirty = True
        self._down: Set[NodeId] = set()
        self._blocked: Set[Edge] = set()
        self._incremental = incremental
        #: set by :mod:`repro.net.manual` for pinned (non-geometric) graphs.
        self._pinned = False
        self.stats = TopologyStats()
        #: whether ``_ax``/``_ay``/``_ar`` and ``_edges`` describe the
        #: current adjacency, so the next refresh can diff against them.
        self._built = False
        #: copies of the fleet's ``x``/``y``/``r`` columns the current
        #: adjacency was computed from.
        self._ax = self._ay = self._ar = None
        self._applied_down: Set[NodeId] = set()
        self._applied_blocked: Set[Edge] = set()
        self._epoch = 0
        #: the consistency check's last oracle evaluation, reused while
        #: the inputs read from the nodes stay equal.  Per instance: the
        #: service runs worlds as threads.
        self._oracle_run: Optional[_OracleRun] = None

    # ------------------------------------------------------------------
    # Recomputation
    # ------------------------------------------------------------------

    def invalidate(self) -> None:
        """Mark the adjacency stale after changing a node outside :meth:`advance`.

        The next refresh re-reads every range through the radios.
        """
        self._dirty = True
        self._radios_stale = True

    def _sync_radios(self) -> None:
        """Bring the fleet's range column up to date with the radios."""
        if self._radios_stale or self.fleet.volatile:
            self._radios_stale = False
            self.fleet.read_radios(self.nodes)

    def recompute(self) -> None:
        """Bring the adjacency up to date with positions and ranges.

        In incremental mode (the default) the link kernel recomputes the
        packed edge set and counts its diff against the previous one in
        :attr:`stats`; nodes marked down (:meth:`set_node_down`) have
        their radios silenced and blacked-out links (:meth:`block_edge`)
        stay suppressed, exactly as in the naive rebuild.
        """
        if self._incremental:
            self._refresh()
        else:
            self.force_full_rebuild()

    def force_full_rebuild(self) -> None:
        """Rebuild the adjacency from scratch (the reference path)."""
        self._adopt(self._compute_adjacency())

    def _adopt(self, edges) -> None:
        """Take ``edges``, the sorted packed edges of the state now, afresh."""
        if self._incremental:
            self._sync_radios()
            self._snapshot()
            self._built = True
        self._apply(edges, full=True)

    def set_incremental(self, enabled: bool) -> None:
        """Switch engine modes; the next refresh rebuilds from scratch."""
        if enabled != self._incremental:
            self._incremental = enabled
            self._built = False
            self._dirty = True

    def _read_inputs(self):
        """Copies of the nodes' positions, and ranges read through their radios.

        Never the fleet's derived ranges: the reference path must see what
        the nodes hold, including changes made behind a missed invalidate.
        """
        nodes = self.nodes
        r = _np.fromiter((node.current_range() for node in nodes), _np.float64, len(nodes))
        return self.fleet.x.copy(), self.fleet.y.copy(), r

    def _compute_adjacency(self):
        """The reference sweep (:func:`_sweep_edges`) of the current state."""
        return _sweep_edges(*self._read_inputs(), self._down, self._blocked)

    # ------------------------------------------------------------------
    # Incremental engine
    # ------------------------------------------------------------------

    def _snapshot(self) -> bool:
        """Copy the fleet's positions and ranges; report whether they changed."""
        fleet = self.fleet
        if (
            self._ax is not None
            and _np.array_equal(fleet.x, self._ax)
            and _np.array_equal(fleet.y, self._ay)
            and _np.array_equal(fleet.r, self._ar)
        ):
            return False
        self._ax = fleet.x.copy()
        self._ay = fleet.y.copy()
        self._ar = fleet.r.copy()
        return True

    def _link_edges(self):
        """The packed edge set of the fleet and the fault state."""
        n = len(self.nodes)
        if self._down:
            live = _np.ones(n, dtype=bool)
            live[list(self._down)] = False
            live = _np.flatnonzero(live)
        else:
            live = _np.arange(n)
        fleet = self.fleet
        return self._hide_blocked(link_edges(fleet.x, fleet.y, fleet.r, live, live))

    def _hide_blocked(self, edges):
        """``edges`` without the blacked-out links."""
        blocked = self._blocked
        if not blocked:
            return edges
        n = len(self.nodes)
        hidden = _np.fromiter((u * n + v for u, v in blocked), _np.int64)
        hidden.sort()
        return edge_delta(edges, hidden)[0]

    def _without_faults(self, edges):
        """Sorted packed ``edges`` minus down nodes' links and blocked links.

        How a pinned graph (:mod:`repro.net.manual`) honours fault state;
        a geometric refresh leaves down nodes out of the kernel instead.
        """
        if self._down:
            down = _np.fromiter(self._down, _np.int64)
            ends = _np.divmod(edges, len(self.nodes))
            edges = edges[~(_np.isin(ends[0], down) | _np.isin(ends[1], down))]
        return self._hide_blocked(edges)

    def _refresh(self) -> None:
        """Recompute the packed edges and apply their diff."""
        self._sync_radios()
        if not self._built:
            self._adopt(self._link_edges())
            return
        changed = self._snapshot()
        if (
            changed
            or self._down != self._applied_down
            or self._blocked != self._applied_blocked
        ):
            self._apply(self._link_edges())
        else:
            self._epoch += 1
            self._dirty = False

    def _apply(self, edges, full: bool = False) -> None:
        """Adopt the sorted packed ``edges`` as the current adjacency.

        The one apply step of rebuilds, geometric refreshes and pinned
        installs.  A ``full`` rebuild drops the served view; anything
        else diffs against the previous array so the flip counters stay
        truthful, and drops the served view only when an edge changed.
        """
        if full:
            self._view = None
        else:
            added, removed = edge_delta(edges, self._edges)
            if added.size or removed.size:
                self._view = None
                self.stats.edges_added += added.size
                self.stats.edges_removed += removed.size
        self._edges = edges
        self._applied_down = set(self._down)
        self._applied_blocked = set(self._blocked)
        self._epoch += 1
        self._dirty = False

    def _current(self):
        """The up-to-date sorted packed edge array."""
        if self._dirty:
            self.recompute()
        return self._edges

    def _served_view(self) -> AdjacencyView:
        """The up-to-date rows, one view per changed adjacency."""
        edges = self._current()
        view = self._view
        if view is None:
            view = self._view = AdjacencyView(edges, len(self.nodes))
        return view

    @property
    def epoch(self) -> int:
        """Monotonic refresh counter (bumped on every applied refresh)."""
        return self._epoch

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def node_count(self) -> int:
        """Number of nodes."""
        return len(self.nodes)

    @property
    def node_ids(self) -> range:
        """All node ids (contiguous)."""
        return range(len(self.nodes))

    def node(self, node_id: NodeId) -> Node:
        """The node object with id ``node_id`` (negative ids are unknown)."""
        self._check_id(node_id)
        return self.nodes[node_id]

    def _check_id(self, node_id: NodeId) -> None:
        if not 0 <= node_id < len(self.nodes):
            raise TopologyError(f"no node with id {node_id}")

    def out_neighbors(self, node_id: NodeId) -> List[NodeId]:
        """Nodes currently reachable in one hop *from* ``node_id``, ascending.

        The returned list is the served row itself — treat it as
        read-only.
        """
        self._check_id(node_id)
        return self._served_view()[node_id]

    def in_neighbors(self, node_id: NodeId) -> List[NodeId]:
        """Nodes that can currently reach ``node_id`` in one hop, ascending.

        Answered on demand by one scan of the packed array; no reverse
        index is kept.
        """
        self._check_id(node_id)
        sources, targets = _np.divmod(self._current(), len(self.nodes))
        return sources[targets == node_id].tolist()

    def has_edge(self, source: NodeId, destination: NodeId) -> bool:
        """Whether the directed link ``source -> destination`` exists now.

        Unknown ids raise :class:`~repro.errors.TopologyError`, matching
        :meth:`out_neighbors` / :meth:`in_neighbors` — an id typo must
        never read as "no link".
        """
        self._check_id(destination)
        return destination in self.out_neighbors(source)

    def edges(self) -> Iterator[Edge]:
        """Iterate all current directed edges in ascending order."""
        sources, targets = _np.divmod(self._current(), len(self.nodes))
        return zip(sources.tolist(), targets.tolist())

    def edge_set(self) -> FrozenSet[Edge]:
        """All current directed edges as a frozen set."""
        return frozenset(self.edges())

    @property
    def edge_count(self) -> int:
        """Number of current directed edges."""
        return int(self._current().size)

    def adjacency_copy(self) -> Adjacency:
        """The current adjacency as a fresh dict of sets (safe to mutate)."""
        return {node: set(row) for node, row in enumerate(self._served_view())}

    def adjacency_view(self) -> AdjacencyView:
        """Every node's ascending out-neighbours, indexed by node id.

        For hot loops that would otherwise call :meth:`out_neighbors`
        per node: one refresh check up front, then indexing, which
        builds a row only when it is first read this epoch.  The rows
        are the engine's own — treat them as read-only, valid until the
        next refresh.
        """
        return self._served_view()

    #: perfbench's tracer patches this name, so it stays an alias.
    take_edge_delta = adjacency_view

    def packed_edges(self):
        """The current edges as a sorted packed ``u * n + v`` int64 array.

        CSR by construction: the out-neighbours of ``u`` are the entries
        in ``[u * n, (u + 1) * n)``, ascending.  The array is the
        engine's own state — treat it as read-only, valid until the next
        refresh.
        """
        return self._current()

    def is_strongly_connected(self) -> bool:
        """Whether every node can currently reach every other node."""
        return is_strongly_connected(dict(enumerate(self._served_view())))

    @property
    def gateway_ids(self) -> List[NodeId]:
        """Ids of *live* gateway nodes, ascending.

        A crashed gateway is off the air: it must not anchor routes or
        count as an attachment point until it recovers.
        """
        return [
            node.node_id
            for node in self.nodes
            if node.is_gateway and node.node_id not in self._down
        ]

    @property
    def all_gateway_ids(self) -> List[NodeId]:
        """Ids of every gateway node, up or down, ascending."""
        return [node.node_id for node in self.nodes if node.is_gateway]

    # ------------------------------------------------------------------
    # Consistency checking
    # ------------------------------------------------------------------

    def consistency_problems(self) -> List[str]:
        """Cross-validate the served adjacency; [] when sound.

        Compares the packed edge array, and every row served from it this
        epoch, against the reference sweep (:func:`_sweep_edges`): each
        served row against the sweep's row for that node.  Rows never
        served do not exist, so every row a consumer read is checked.  A
        pinned graph has no geometry, so its rows are compared against
        its array.  Wired into the runtime invariant checker, which
        calls it every step.

        Positions and ranges are read from the nodes on every call.  The
        sweep's edges and rows are reused only when those reads, the down
        set and the blocked set all equal the previous call's inputs;
        the sweep is a pure function of them, so reuse returns exactly
        what a fresh sweep would.  Nothing the engine keeps (the fleet's
        range column, its snapshots, epochs) takes part, so a moved node, a missed
        :meth:`invalidate`, a corrupted array or a mutated row is
        flagged in the call that first sees it.  A sound structure costs
        one array compare and one list compare per served row; only a
        mismatch pays for the messages naming each missing and phantom
        edge.
        """
        edges = self._current()
        n = len(self.nodes)
        run = None if self._pinned else self._oracle()
        expected = edges if run is None else run.edges
        problems: List[str] = []
        if not _np.array_equal(edges, expected):
            for kind, wrong in (
                ("missing", _np.setdiff1d(expected, edges)),
                ("has phantom", _np.setdiff1d(edges, expected)),
            ):
                sources, targets = _np.divmod(wrong, n)
                problems.extend(
                    f"packed edge array {kind} edge {u}->{w}"
                    for u, w in zip(sources.tolist(), targets.tolist())
                )
            if not problems:
                problems.append("packed edge array is not sorted and duplicate-free")
        served = self._view.served() if self._view is not None else ()
        if served:
            if run is None:
                bounds, truth = _csr_lists(expected, n)
            else:
                if run.csr is None:
                    run.csr = _csr_lists(expected, n)
                bounds, truth = run.csr
            for u, row in served:
                want = truth[bounds[u] : bounds[u + 1]]
                if row == want:
                    continue
                have, need = set(row), set(want)
                problems.extend(f"row of node {u} missing edge {u}->{w}" for w in sorted(need - have))
                problems.extend(
                    f"row of node {u} has phantom edge {u}->{w}" for w in sorted(have - need)
                )
                if have == need:
                    problems.append(f"row of node {u} is not strictly ascending")
        return problems

    def _oracle(self) -> _OracleRun:
        """The reference sweep of the inputs the nodes hold right now."""
        x, y, r = self._read_inputs()
        run = self._oracle_run
        if run is None or not run.same_inputs(x, y, r, self._down, self._blocked):
            down = frozenset(self._down)
            blocked = frozenset(self._blocked)
            run = self._oracle_run = _OracleRun(
                x, y, r, down, blocked, _sweep_edges(x, y, r, down, blocked)
            )
        return run

    # ------------------------------------------------------------------
    # Fault state
    # ------------------------------------------------------------------

    @property
    def down_ids(self) -> FrozenSet[NodeId]:
        """Ids of nodes currently marked down (crashed)."""
        return frozenset(self._down)

    def is_down(self, node_id: NodeId) -> bool:
        """Whether ``node_id`` is currently crashed."""
        return node_id in self._down

    def set_node_down(self, node_id: NodeId) -> bool:
        """Crash ``node_id``: silence its radio until :meth:`set_node_up`.

        Returns whether the state changed (crashing a dead node is a
        no-op, so fault plans are idempotent).
        """
        self.node(node_id)  # validate the id
        if node_id in self._down:
            return False
        self._down.add(node_id)
        self.invalidate()
        return True

    def set_node_up(self, node_id: NodeId) -> bool:
        """Recover a crashed node; returns whether the state changed."""
        self.node(node_id)
        if node_id not in self._down:
            return False
        self._down.discard(node_id)
        self.invalidate()
        return True

    def block_edge(self, source: NodeId, destination: NodeId) -> bool:
        """Black out the directed link ``source -> destination``.

        The link stays suppressed across recomputes until
        :meth:`unblock_edge`; returns whether the state changed.
        """
        self.node(source)
        self.node(destination)
        edge = (source, destination)
        if edge in self._blocked:
            return False
        self._blocked.add(edge)
        self.invalidate()
        return True

    def unblock_edge(self, source: NodeId, destination: NodeId) -> bool:
        """Lift a link blackout; returns whether the state changed."""
        edge = (source, destination)
        if edge not in self._blocked:
            return False
        self._blocked.discard(edge)
        self.invalidate()
        return True

    @property
    def blocked_edges(self) -> FrozenSet[Edge]:
        """Currently blacked-out directed links."""
        return frozenset(self._blocked)

    # ------------------------------------------------------------------
    # Dynamics
    # ------------------------------------------------------------------

    def advance(self) -> None:
        """Advance every node one step (battery, then motion).

        :meth:`Fleet.step` moves the whole fleet at once; the adjacency
        follows on the next read.
        """
        self.fleet.step(self.nodes, self.arena)
        self._dirty = True

    #: perfbench's tracer patches this name, so it stays an alias.
    advance_motion = advance

    def motion_state(self):
        """Current ``(x, y, range)`` float arrays over all nodes, by id.

        The fleet's own columns — callers must treat them as read-only;
        they change in place on the next advance.
        """
        self._sync_radios()
        fleet = self.fleet
        return fleet.x, fleet.y, fleet.r
