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
recomputes the array, diffs it against the previous one
(:func:`edge_delta`, a sorted merge) and appends the packed diff to the
edge-delta stream (:class:`TopologyDelta`) that the delta-aware
connectivity metric consumes.  A refresh that finds no position, range
or fault change does no edge work at all.  Pinned graphs
(:mod:`repro.net.manual`) go through the same apply step.

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
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as _np

from repro.errors import TopologyError
from repro.net.battery import ExponentialDrain, LinearDrain, NoDrain
from repro.net.geometry import Arena, Point
from repro.net.graphutils import Adjacency, is_strongly_connected
from repro.net.mobility import RandomVelocity, Stationary
from repro.net.node import Node
from repro.net.radio import BatteryCoupledRange, FixedRange, HeterogeneousRange
from repro.types import Edge, NodeId

__all__ = [
    "AdjacencyView",
    "EdgeDeltaStream",
    "Topology",
    "TopologyDelta",
    "TopologyStats",
    "edge_delta",
    "link_edges",
]

#: buffered delta edges beyond which the stream collapses into a full
#: flush — protects worlds that never attach a delta consumer.
_DELTA_CAP = 100_000

#: senders x receivers pairs up to which :func:`link_edges` evaluates
#: every pair densely; beyond it the column grid examines fewer pairs at
#: a higher cost per pair.  Set from the measured crossover (between 150
#: and 200 nodes on the paper's MANET shape; DESIGN.md, "The link
#: kernel's two evaluations").
_DENSE_MAX_PAIRS = 160 * 160


@dataclass
class TopologyStats:
    """Always-on counters describing how the engine keeps itself current."""

    #: from-scratch builds (first build, naive mode, fallbacks).
    full_rebuilds: int = 0
    #: refreshes that diffed against the previous edge set.
    incremental_refreshes: int = 0
    #: directed edges added by refreshes (full rebuilds not counted).
    edges_added: int = 0
    #: directed edges removed by refreshes.
    edges_removed: int = 0


def _no_edges():
    return _np.empty(0, dtype=_np.int64)


@dataclass
class TopologyDelta:
    """One drained batch of edge changes since the previous drain.

    ``added``/``removed`` are packed ``u * n + v`` int64 arrays, one
    sorted run per refresh.  ``full`` means the adjacency was rebuilt
    wholesale (first build, naive mode, or buffer overflow) and
    consumers must flush anything derived from earlier state;
    ``added``/``removed`` are then empty.
    """

    full: bool = False
    added: object = field(default_factory=_no_edges)
    removed: object = field(default_factory=_no_edges)


class EdgeDeltaStream:
    """The packed edge changes recorded since the previous drain.

    Opens ``full``, like a freshly built adjacency; overflowing
    ``_DELTA_CAP`` collapses it back to ``full``, which protects
    adjacencies that never get a delta consumer.
    """

    def __init__(self) -> None:
        self.flush()

    def flush(self) -> None:
        """Collapse the stream into a ``full`` marker."""
        self.full = True
        self.added: List = []
        self.removed: List = []
        self.size = 0

    def record(self, added, removed) -> None:
        """Append one refresh's packed diff (no-op while ``full``)."""
        if self.full:
            return
        self.added.append(added)
        self.removed.append(removed)
        self.size += added.size + removed.size
        if self.size > _DELTA_CAP:
            self.flush()

    def take(self) -> TopologyDelta:
        """Drain the stream; the next drain starts empty, not ``full``."""
        delta = TopologyDelta(
            self.full,
            _np.concatenate([_no_edges()] + self.added),
            _np.concatenate([_no_edges()] + self.removed),
        )
        self.flush()
        self.full = False
        return delta


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


@dataclass
class _DrainGroup:
    """One distinct drain model: its batteries and their level mirror."""

    #: "linear" carries ``per_step``, "exp" carries ``1 - rate``.
    kind: str
    param: float
    batteries: list
    #: float64 mirror of every battery's ``_level``, updated in place.
    levels: object
    #: ``(k, node_id, base, exponent, floor)`` for the group members
    #: whose radio is battery-coupled (``k`` indexes into ``levels``);
    #: constant-range radios need no recompute after a drain step.
    coupled: List[Tuple[int, NodeId, float, float, float]]


@dataclass
class _AdvanceState:
    """Hardware classification backing the vectorized advance fast path.

    Positions, velocities and battery levels are mirrored as float64
    arrays so the steady state runs without per-node attribute reads.
    Any :meth:`Topology.invalidate` (the mandatory companion of every
    external node mutation) discards the whole state, so the mirrors
    can never go stale.
    """

    #: straight-line (RandomVelocity) nodes and their ids (int64).
    movers: List[Node]
    ids: object
    #: the movers' current positions and velocities.
    mx: object
    my: object
    vx: object
    vy: object
    drain_groups: List[_DrainGroup]


def _classify_hardware(nodes: Sequence[Node], dynamic: Sequence[Node]):
    """Build the fast-path :class:`_AdvanceState`, or ``False``.

    The fast path must know *every* way a node's position or range can
    change between refreshes, so it demands stock models throughout:
    exotic mobility, drain, or radio classes (whose state could move on
    their own schedule) disable it for the topology's lifetime and the
    scalar loop plus the full change scan stay in charge.
    """
    known_radios = (FixedRange, HeterogeneousRange, BatteryCoupledRange)
    for node in nodes:
        radio = node.radio
        radio_kind = type(radio)
        if radio_kind not in known_radios:
            return False
        if radio_kind is BatteryCoupledRange and radio.battery is not node.battery:
            # A cross-wired radio could change range without its own
            # node draining; the fast path can't see that.
            return False
    movers: List[Node] = []
    groups: Dict[Tuple[str, float], Tuple[list, List[Node]]] = {}
    for node in dynamic:
        mobility = node.mobility
        kind = type(mobility)
        if kind is RandomVelocity:
            movers.append(node)
        elif kind is not Stationary:
            return False
        if node._battery_drains:
            model = node.battery._drain_model
            model_kind = type(model)
            if model_kind is LinearDrain:
                key = ("linear", model.per_step)
            elif model_kind is ExponentialDrain:
                key = ("exp", model._keep)
            else:
                return False
            group = groups.get(key)
            if group is None:
                group = groups[key] = ([], [])
            group[0].append(node.battery)
            group[1].append(node)
    m = len(movers)
    mx = _np.fromiter((node.position.x for node in movers), _np.float64, m)
    my = _np.fromiter((node.position.y for node in movers), _np.float64, m)
    vx = _np.fromiter((node.mobility._vx for node in movers), _np.float64, m)
    vy = _np.fromiter((node.mobility._vy for node in movers), _np.float64, m)
    drain_groups = []
    for (kind, param), (batteries, group_nodes) in groups.items():
        levels = _np.fromiter(
            (b._level for b in batteries), _np.float64, len(batteries)
        )
        coupled = [
            (
                k,
                node.node_id,
                node.radio.base,
                node.radio.exponent,
                node.radio.floor,
            )
            for k, node in enumerate(group_nodes)
            if type(node.radio) is BatteryCoupledRange
        ]
        drain_groups.append(_DrainGroup(kind, param, batteries, levels, coupled))
    ids = _np.fromiter((node.node_id for node in movers), _np.int64, m)
    return _AdvanceState(movers, ids, mx, my, vx, vy, drain_groups)


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
        #: sorted packed ``u * n + v`` edges: the adjacency itself.
        self._edges = _no_edges()
        #: the rows of ``_edges``, a new view on first read after a change.
        self._view: Optional[AdjacencyView] = None
        self._dirty = True
        self._down: Set[NodeId] = set()
        self._blocked: Set[Edge] = set()
        self._incremental = incremental
        #: set by :mod:`repro.net.manual` for pinned (non-geometric) graphs.
        self._pinned = False
        self.stats = TopologyStats()
        #: whether the mirrors and ``_edges`` describe the current
        #: adjacency, so the next refresh can diff against them.
        self._built = False
        #: float64 position and range mirrors over all nodes: the values
        #: the current adjacency was computed from, or — while
        #: :meth:`advance_motion` drives the topology — the live ones.
        self._ax = self._ay = self._ar = None
        self._applied_down: Set[NodeId] = set()
        self._applied_blocked: Set[Edge] = set()
        self._dynamic_nodes: Optional[List[Node]] = None
        #: change hint from the vectorized :meth:`advance` fast path: the
        #: ``(node_ids, ranges)`` of changed battery-coupled ranges (the
        #: movers' new positions sit in the hardware state).  The
        #: mirrors are written only when the refresh consumes the hint;
        #: any :meth:`invalidate` discards it, so external mutations
        #: always force the full change scan.
        self._advance_hint: Optional[Tuple[list, list]] = None
        #: lazily built hardware classification for the fast path;
        #: ``False`` means some node defies it (custom models) and the
        #: scalar loop is permanent.
        self._advance_state: object = None
        self._delta = EdgeDeltaStream()
        self._epoch = 0
        #: the consistency check's last oracle evaluation, reused while
        #: the inputs read from the nodes stay equal.  Per instance: the
        #: service runs worlds as threads.
        self._oracle_run: Optional[_OracleRun] = None

    # ------------------------------------------------------------------
    # Recomputation
    # ------------------------------------------------------------------

    def invalidate(self) -> None:
        """Mark the cached adjacency stale (after motion or degradation)."""
        self._dirty = True
        self._advance_hint = None
        if self._advance_state is not False:
            # External mutations may have touched positions, velocities
            # or battery levels behind the fast path's mirrors; rebuild
            # them on next use.  ``False`` (unsupported models) sticks:
            # models are fixed at node construction.
            self._advance_state = None

    def recompute(self) -> None:
        """Bring the adjacency up to date with positions and ranges.

        In incremental mode (the default) the link kernel recomputes the
        packed edge set and only its diff against the previous one
        enters the delta stream; nodes marked down
        (:meth:`set_node_down`) have their radios silenced and
        blacked-out links (:meth:`block_edge`) stay suppressed, exactly
        as in the naive rebuild.
        """
        if self._incremental:
            self._refresh()
        else:
            self.force_full_rebuild()

    def force_full_rebuild(self) -> None:
        """Rebuild the adjacency from scratch (the reference path)."""
        edges = self._compute_adjacency()
        if self._incremental:
            self._sync_mirrors()
            self._built = True
        self._apply(edges, full=True)

    @property
    def incremental(self) -> bool:
        """Whether the incremental engine is active."""
        return self._incremental

    def set_incremental(self, enabled: bool) -> None:
        """Switch engine modes; the next refresh rebuilds from scratch."""
        if enabled != self._incremental:
            self._incremental = enabled
            self._built = False
            self._dirty = True

    def _read_inputs(self):
        """Float64 positions and ranges read from the nodes themselves.

        Never the engine's mirrors: the reference path must see what the
        nodes hold, including changes made behind a missed invalidate.
        """
        nodes = self.nodes
        n = len(nodes)
        x = _np.fromiter((node.position.x for node in nodes), _np.float64, n)
        y = _np.fromiter((node.position.y for node in nodes), _np.float64, n)
        r = _np.fromiter((node.current_range() for node in nodes), _np.float64, n)
        return x, y, r

    def _compute_adjacency(self):
        """The reference sweep (:func:`_sweep_edges`) of the current state."""
        return _sweep_edges(*self._read_inputs(), self._down, self._blocked)

    # ------------------------------------------------------------------
    # Incremental engine
    # ------------------------------------------------------------------

    def _sync_mirrors(self) -> bool:
        """Re-read positions and ranges from the nodes; report changes."""
        nodes = self.nodes
        n = len(nodes)
        ax = _np.fromiter((node.position.x for node in nodes), _np.float64, n)
        ay = _np.fromiter((node.position.y for node in nodes), _np.float64, n)
        ar = _np.fromiter(
            (node.radio.current_range() for node in nodes), _np.float64, n
        )
        changed = not (
            self._ax is not None
            and _np.array_equal(ax, self._ax)
            and _np.array_equal(ay, self._ay)
            and _np.array_equal(ar, self._ar)
        )
        self._ax, self._ay, self._ar = ax, ay, ar
        return changed

    def _link_edges(self):
        """The packed edge set of the current mirrors and fault state."""
        n = len(self.nodes)
        if self._down:
            live = _np.ones(n, dtype=bool)
            live[list(self._down)] = False
            live = _np.flatnonzero(live)
        else:
            live = _np.arange(n)
        return self._hide_blocked(link_edges(self._ax, self._ay, self._ar, live, live))

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
        if not self._built:
            self._sync_mirrors()
            self._built = True
            self._apply(self._link_edges(), full=True)
            return
        # Change detection.  The vectorized advance fast path hands the
        # changes over with their new values; without it (external
        # mutation, scalar models) the mirrors are re-read and compared.
        hint = self._advance_hint
        if hint is not None:
            self._advance_hint = None
            changed = self._apply_kinematics(*hint)
        else:
            changed = self._sync_mirrors()
        self.stats.incremental_refreshes += 1
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
        installs.  A ``full`` rebuild restarts the delta stream; anything
        else diffs against the previous array so the delta stream and
        the flip counters stay truthful, and drops the served view only
        when an edge changed.
        """
        if full:
            self._view = None
            self._delta.flush()
            self.stats.full_rebuilds += 1
            self._advance_hint = None
        else:
            added, removed = edge_delta(edges, self._edges)
            if added.size or removed.size:
                self._view = None
                self._delta.record(added, removed)
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

    # ------------------------------------------------------------------
    # Edge-delta stream
    # ------------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Monotonic refresh counter (bumped on every applied refresh)."""
        return self._epoch

    def take_edge_delta(self) -> TopologyDelta:
        """Drain the edge changes accumulated since the previous drain.

        Refreshes the adjacency first, so the drained delta includes the
        current step.  The stream starts (and restarts after any full
        rebuild or overflow) with a ``full=True`` flush marker.
        """
        self._current()
        return self._delta.take()

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
        what a fresh sweep would.  Nothing the engine keeps (mirrors,
        change hints, epochs) takes part, so a moved node, a missed
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

    def _dynamic(self) -> List[Node]:
        """Nodes whose hardware can change (mobile or draining)."""
        dynamic = self._dynamic_nodes
        if dynamic is None:
            dynamic = self._dynamic_nodes = [
                node
                for node in self.nodes
                if not (
                    isinstance(node.mobility, Stationary)
                    and isinstance(node.battery._drain_model, NoDrain)
                )
            ]
        return dynamic

    def _hardware(self):
        """The fast path's hardware classification (``False``: none)."""
        state = self._advance_state
        if state is None:
            state = self._advance_state = _classify_hardware(
                self.nodes, self._dynamic()
            )
        return state

    def advance(self) -> None:
        """Advance every node one step (battery + motion) and invalidate.

        Nodes with static hardware — stationary mobility and a drainless
        battery — are skipped: for them :meth:`Node.advance` is a no-op
        by construction, and on mixed networks half the fleet is static.
        The partition is computed once (mobility and battery objects are
        fixed at node construction; faults mutate their state, never
        replace them).

        When every node's hardware is built from the stock models, the
        vectorized fast path below advances batteries and straight-line
        motion as array operations — bit-identical element-wise, since
        IEEE adds, subtracts and clamps carry over exactly — and hands
        the refresh a pre-computed change hint so it can skip its O(n)
        scan.  The fast path requires a clean (just-refreshed) topology:
        any pending :meth:`invalidate` means external state may have
        drifted, so that step takes the scalar loop and the full scan.
        """
        if not self._dirty and self._incremental and self._built:
            state = self._hardware()
            if state is not False:
                self._advance_hint = self._advance_kinematics(state, self._ar)
                self._dirty = True
                return
        arena = self.arena
        for node in self._dynamic():
            node.advance(arena)
        self.invalidate()

    def _advance_kinematics(self, state: "_AdvanceState", ranges) -> Tuple[list, list]:
        """Vectorized battery drain + motion; returns the range changes.

        Updates the node objects and ``state``'s mover position arrays
        and returns the battery-coupled range changes as
        ``(node_ids, new_ranges)``; ``ranges`` (the range mirror)
        suppresses no-op reports.  The mirrors themselves are left to
        :meth:`_apply_kinematics`, so a cleared hint (external
        invalidate) leaves the refresh's scan able to re-detect every
        change against the untouched mirrors.  Nodes that would cross
        the arena boundary this step are delegated to the scalar
        mobility model (reflection flips the stored velocity, which only
        the model itself may mutate).
        """
        range_changed: List[NodeId] = []
        new_ranges: List[float] = []
        arena = self.arena
        movers = state.movers
        if movers:
            mx, my = state.mx, state.my
            x = mx + state.vx
            y = my + state.vy
            oob = (x < 0.0) | (x > arena.width) | (y < 0.0) | (y > arena.height)
            changed = (x != mx) | (y != my)
            has_oob = bool(oob.any())
            if has_oob:
                changed &= ~oob
            xs = x.tolist()
            ys = y.tolist()
            for k in _np.flatnonzero(changed).tolist():
                movers[k].position = Point(xs[k], ys[k])
            if has_oob:
                inb = ~oob
                _np.copyto(mx, x, where=inb)
                _np.copyto(my, y, where=inb)
                vx, vy = state.vx, state.vy
                for k in _np.flatnonzero(oob).tolist():
                    node = movers[k]
                    mob = node.mobility
                    pos = mob.move(node.position, arena)
                    node.position = pos
                    mx[k] = pos.x
                    my[k] = pos.y
                    # reflection may have flipped the stored velocity
                    vx[k] = mob._vx
                    vy[k] = mob._vy
            else:
                mx[:] = x
                my[:] = y
        previous = None
        for group in state.drain_groups:
            levels = group.levels
            if group.kind == "linear":
                _np.subtract(levels, group.param, out=levels)
            else:  # exponential
                _np.multiply(levels, group.param, out=levels)
            _np.maximum(levels, 0.0, out=levels)
            _np.minimum(levels, 1.0, out=levels)
            lv = levels.tolist()
            for battery, level in zip(group.batteries, lv):
                battery._level = level
            if group.coupled and previous is None:
                previous = ranges.tolist()
            # Inlined BatteryCoupledRange.current_range(): the scaled
            # value is never negative (base > 0, level >= 0), so the
            # floor clamp below is bit-identical to max(floor, scaled).
            for k, i, base, exponent, floor in group.coupled:
                r = base * (lv[k] ** exponent)
                if r < floor:
                    r = floor
                if r != previous[i]:
                    range_changed.append(i)
                    new_ranges.append(r)
        return range_changed, new_ranges

    def _apply_kinematics(self, range_changed: list, new_ranges: list) -> bool:
        """Scatter one kinematics step into the mirrors; report changes."""
        state = self._advance_state
        if state.movers:
            self._ax[state.ids] = state.mx
            self._ay[state.ids] = state.my
        if range_changed:
            self._ar[range_changed] = new_ranges
        return bool(state.movers or range_changed)

    def motion_state(self):
        """Current ``(x, y, range)`` float arrays over all nodes, by id.

        The arrays are the live mirrors maintained by
        :meth:`advance_motion` — callers must treat them as read-only
        snapshots that change in place on the next advance.
        """
        if self._ax is None:
            self._sync_mirrors()
        return self._ax, self._ay, self._ar

    def advance_motion(self) -> None:
        """Advance batteries and motion only, leaving adjacency unbuilt.

        The sharded runtime owns adjacency per spatial tile, so the
        per-step cost it wants from the topology is *exactly* the
        kinematics: node positions, velocities, battery levels and
        coupled ranges — never a change scan or any edge state.  Runs
        the same vectorized update as :meth:`advance` (bit-identical to
        the scalar :meth:`Node.advance` loop) and folds the change hint
        straight into the :meth:`motion_state` arrays.  The adjacency is
        marked stale; a later :meth:`recompute` (if anyone asks) starts
        from scratch.
        """
        if (
            self._ax is None
            or self._advance_state is None
            or self._advance_hint is not None
        ):
            # First use, an invalidate() that may hide external
            # mutations, or an advance() the mirrors have not caught up
            # with: re-read them from the nodes.
            self._sync_mirrors()
        state = self._hardware()
        if state is not False:
            self._apply_kinematics(*self._advance_kinematics(state, self._ar))
        else:
            arena = self.arena
            for node in self._dynamic():
                node.advance(arena)
            self._sync_mirrors()
        self._dirty = True
        self._built = False
        self._advance_hint = None
