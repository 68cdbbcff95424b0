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

The nodes' state — positions, velocities, battery levels, radio ranges
and gateway flags — lives in one structure-of-arrays :class:`Fleet` per
topology, which the nodes, batteries and mobility models read and write.
:meth:`Topology.advance` steps the whole fleet as array operations, and
a refresh does no edge work when the bytes of the fleet's columns and
the fault state equal those of the run it last applied.  The node
objects are a :class:`NodeSequence`, which builds a node the first time
it is read, so a topology copied from columns (a MANET blueprint) pays
for the nodes a run actually touches.

The rebuild from scratch (:meth:`Topology.force_full_rebuild`, a plain
method that no mode switches on) is the reference implementation, a
sorted-x sweep (:func:`_sweep_edges`) that shares no code with the
kernel: it takes copies of the fleet's positions and ranges, with the
battery-coupled ranges re-derived from the levels by the radio model's
scalar arithmetic and the volatile radios read through their nodes,
sorts the live receivers by x and evaluates the same predicate over each
sender's x-window.  The two are bit-identical because both evaluate that
predicate exactly; the test suite property-checks the sweep against a
pure-Python brute force and the engine against the sweep on randomized
mobility and fault traces, and :meth:`Topology.consistency_problems`
lets the runtime invariant checker compare the packed array and every
row served from it against the sweep every step.  The sweep is a pure
function of its inputs, so the checker re-runs it only when the bytes
of the inputs it reads that step differ from its previous run's.

The refresh's edge set and the sweep are both pure functions of the
positions, ranges, down set and blocked set, and the copies of one MANET
blueprint walk the same movement path.  So both go through one lookup
(:meth:`Topology._lookup`): the topology's last run of that computation
if its inputs are byte-for-byte equal, then, in a topology copied from a
kept blueprint, the :class:`LinkMemo` its copies share, one table per
computation, and only then the computation.  A hit returns what the
computation would return, so the engine and the sweep still check each
other.  Other topologies have no memo.
"""

from __future__ import annotations

import hashlib
import sys
import threading
from collections import abc
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

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
    "LinkMemo",
    "NodeSequence",
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
    are per thread because worlds stepped on threads of one process
    (the run defaults are scoped per thread for the same callers) would
    otherwise overwrite each other's slices.
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


def _kernel_edges(x, y, r, down, blocked):
    """:func:`link_edges` among the live nodes, minus the ``blocked`` links.

    A refresh's edge set: a pure function of the positions and ranges
    ``x``/``y``/``r``, the set of ``down`` node ids and the set of
    ``blocked`` ``(u, v)`` links, as :func:`_sweep_edges` is.
    """
    n = x.size
    if down:
        live = _np.ones(n, dtype=bool)
        live[list(down)] = False
        live = _np.flatnonzero(live)
    else:
        live = _np.arange(n)
    return _without_links(link_edges(x, y, r, live, live), blocked, n)


def _without_links(edges, blocked, n: int):
    """Sorted packed ``edges`` without the ``blocked`` ``(u, v)`` links."""
    if not blocked:
        return edges
    hidden = _np.fromiter((u * n + v for u, v in blocked), _np.int64)
    hidden.sort()
    return edge_delta(edges, hidden)[0]


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


def _state_bytes(x, y, r, down, blocked) -> bytes:
    """The inputs of a link computation as one byte string.

    The float64 bytes of ``x``/``y``/``r`` and then, under faults, the
    sorted ``down`` ids and ``blocked`` links.  Within one topology (a
    fixed node count) equal strings mean bit-identical inputs, so a pure
    computation returns the same edges for both.
    """
    state = b"".join((x.tobytes(), y.tobytes(), r.tobytes()))
    if down or blocked:
        state += repr((sorted(down), sorted(blocked))).encode()
    return state


@dataclass
class _LinkRun:
    """One evaluation of a link computation: its inputs' bytes and its edges.

    The computation is :func:`_sweep_edges` (the oracle) or
    :func:`_kernel_edges` (the refresh), each a pure function of the
    inputs :func:`_state_bytes` encodes.  ``state`` is an immutable copy
    of those inputs, so nothing the engine does can change it after the
    fact.
    """

    state: bytes
    edges: object
    #: :func:`_csr_lists` of ``edges``, built the first time served
    #: rows are checked against them.
    csr: Optional[Tuple[List[int], List[NodeId]]] = None

    def nbytes(self, rows: bool) -> int:
        """An upper bound on the bytes this run holds once stored.

        Its state and edges, its objects, and with ``rows`` the two lists
        :func:`_csr_lists` builds: a pointer per item plus an int object
        per item above 256 (CPython shares the smaller ones), so every
        row bound counts an object and targets do past 257 nodes.
        """
        size = _RUN_OVERHEAD + sys.getsizeof(self.state) + self.edges.nbytes
        if rows:
            n = len(self.state) // 24  # x, y and r: 8 bytes a node each
            e = self.edges.size
            size += 8 * (n + 1 + e) + 32 * (n + 1 + (e if n > 257 else 0))
        return size


#: bytes a stored run holds besides its state, edges and rows: the run
#: and its dict, the array header, the two list headers and its slot.
_RUN_OVERHEAD = 768

#: bytes one first sighting holds: a 16-byte digest object and its slot.
_SIGHTING_BYTES = 128

#: bytes one :class:`LinkMemo` may hold, by :meth:`_LinkRun.nbytes` per
#: stored run and _SIGHTING_BYTES per sighting; it stops admitting at
#: the cap.  Sized to hold one checked PAPER path: a 250-node state's
#: runs count about 20 KiB in the engine table and 42 KiB in the oracle
#: table, so a 300-step path counts 18.2 MiB (17.7 MiB measured;
#: EXPERIMENTS.md, "Shared movement paths").  One memo lives per kept
#: MANET blueprint and the blueprint LRU keeps 8, so the worst case is
#: 8 x 24 MiB = 192 MiB, by a count that never under-counts.
LINK_MEMO_BYTES = 24 << 20


def _state_digest(state: bytes) -> bytes:
    """A 16-byte BLAKE2b digest of ``state``, a :func:`_state_bytes` string.

    It only finds the candidate runs: equal state strings decide a hit.
    """
    return hashlib.blake2b(state, digest_size=16).digest()


class LinkMemo:
    """Link computations of the states the copies of one network reach.

    The copies of one MANET blueprint walk the same movement path, so
    without faults every copy reaches the same states.  ``engine`` holds
    runs of the refresh's :func:`_kernel_edges` and ``oracle`` runs of
    the reference :func:`_sweep_edges`; neither table is ever read for
    the other's computation.  Each maps a state's digest to its stored
    runs, or to ``None`` while the state has been seen once: a state is
    stored on its second sighting, so a path only one copy walks stores
    digests and no arrays.  A hit needs a stored run whose inputs are
    byte-for-byte the caller's, and both computations are pure, so it
    returns what computing would.  Stored edges are read-only, and an
    oracle run's rows are built once for every copy.  The memo stops
    admitting at :data:`LINK_MEMO_BYTES` (``limit``); a lock guards the
    tables, since worlds may be stepped on threads of one process.
    """

    def __init__(self) -> None:
        self.limit = LINK_MEMO_BYTES
        #: bytes held, as :data:`LINK_MEMO_BYTES` counts them.
        self.nbytes = 0
        self.engine: Dict[bytes, Optional[List[_LinkRun]]] = {}
        self.oracle: Dict[bytes, Optional[List[_LinkRun]]] = {}
        self._lock = threading.Lock()

    def run(self, table, compute, state: bytes, inputs) -> _LinkRun:
        """The run of ``compute(*inputs)``: ``table``'s, or a new one.

        ``state`` is :func:`_state_bytes` of ``inputs``.
        """
        key = _state_digest(state)
        with self._lock:
            seen = key in table
            stored = _stored(table.get(key), state)
            if stored is not None:
                return stored
        run = _LinkRun(state, compute(*inputs))
        if not seen:
            with self._lock:
                if key not in table and self.nbytes + _SIGHTING_BYTES <= self.limit:
                    table[key] = None
                    self.nbytes += _SIGHTING_BYTES
            return run
        size = run.nbytes(rows=table is self.oracle)
        with self._lock:
            runs = table[key]
            stored = _stored(runs, state)
            if stored is not None:  # another thread stored it meanwhile
                return stored
            if self.nbytes + size > self.limit:
                return run
            run.edges.flags.writeable = False
            if runs is None:
                table[key] = [run]
            else:
                runs.append(run)
            self.nbytes += size
        return run


def _stored(runs: Optional[List[_LinkRun]], state: bytes) -> Optional[_LinkRun]:
    """The run of ``runs`` computed from ``state``, if any."""
    for run in runs or ():
        if run.state == state:
            return run
    return None


class Fleet:
    """The per-node state of a topology, one column each, indexed by node id.

    ``x``/``y`` (positions), ``vx``/``vy`` (velocities of
    :class:`~repro.net.mobility.RandomVelocity` nodes, 0 elsewhere),
    ``level`` (battery levels), ``r`` (radio ranges) and ``gateway``
    (whether a node is a gateway).  ``base``/``floor``/``exponent`` are
    the parameters of the heterogeneous and ``coupled`` (battery-coupled
    on their own node's battery) radios, 0 elsewhere; the fleet derives
    the coupled ranges from ``level``.  The fleet is the only owner of
    this state: a node bound to its slot (:meth:`bind`), its battery,
    its mobility model and its radio read and write these columns.
    ``volatile`` lists the nodes whose radio it cannot own (another
    class, or a coupled radio on another node's battery), whose ranges
    every refresh re-reads through the radio.

    ``movers`` (stock ``RandomVelocity`` ids), ``drains`` (``(linear,
    parameter, ids)``: ``per_step`` for a linear drain, ``1 - rate`` for
    an exponential one), ``walkers`` (nodes moved by another model) and
    ``stepped`` (batteries drained by another model) group the nodes by
    model once: models are fixed at node construction, radios included.
    The fleet keeps node ids, never nodes: a topology holds no cycle.
    """

    def __init__(
        self,
        *,
        x,
        y,
        vx,
        vy,
        level,
        r,
        gateway,
        base,
        floor,
        exponent,
        coupled,
        movers,
        drains: List[Tuple[bool, float, object]],
        walkers: Sequence[NodeId] = (),
        stepped: Sequence[NodeId] = (),
    ) -> None:
        self.x, self.y, self.vx, self.vy = x, y, vx, vy
        self.level, self.r, self.gateway = level, r, gateway
        self.base, self.floor, self.exponent = base, floor, exponent
        #: ids of the coupled radios, ascending.
        self.coupled = _np.flatnonzero(coupled)
        self._movers = movers
        self._drains = drains
        self._walkers = list(walkers)
        self._stepped = list(stepped)
        self.volatile: List[NodeId] = []

    @classmethod
    def of_nodes(cls, nodes: Sequence[Node]) -> "Fleet":
        """A fleet holding the state of ``nodes`` (ids ``0..n-1``), each bound."""
        n = len(nodes)
        vx = _np.zeros(n)
        vy = _np.zeros(n)
        base = _np.zeros(n)
        floor = _np.zeros(n)
        exponent = _np.zeros(n)
        coupled = _np.zeros(n, dtype=bool)
        movers: List[NodeId] = []
        walkers: List[NodeId] = []
        stepped: List[NodeId] = []
        drains: Dict[Tuple[bool, float], List[NodeId]] = {}
        for node in nodes:
            i = node.node_id
            mobility = node.mobility
            if isinstance(mobility, RandomVelocity):
                vx[i], vy[i] = mobility._vx, mobility._vy
            if type(mobility) is RandomVelocity:
                movers.append(i)
            elif type(mobility) is not Stationary:
                walkers.append(i)
            if node._battery_drains:
                model = node.battery._drain_model
                if type(model) is LinearDrain:
                    drains.setdefault((True, model.per_step), []).append(i)
                elif type(model) is ExponentialDrain:
                    drains.setdefault((False, model._keep), []).append(i)
                else:
                    stepped.append(i)
            radio = node.radio
            if _owned(node):
                base[i] = radio.base
                if type(radio) is BatteryCoupledRange:
                    coupled[i] = True
                    floor[i], exponent[i] = radio.floor, radio.exponent
        fleet = cls(
            x=_np.array([node.position.x for node in nodes], dtype=_np.float64),
            y=_np.array([node.position.y for node in nodes], dtype=_np.float64),
            vx=vx,
            vy=vy,
            level=_np.array([node.battery.level for node in nodes], dtype=_np.float64),
            r=_np.array([node.current_range() for node in nodes], dtype=_np.float64),
            gateway=_np.array([node.is_gateway for node in nodes], dtype=bool),
            base=base,
            floor=floor,
            exponent=exponent,
            coupled=coupled,
            movers=_np.array(movers, dtype=_np.int64),
            drains=[
                (linear, param, _np.array(ids, dtype=_np.int64))
                for (linear, param), ids in drains.items()
            ],
            walkers=walkers,
            stepped=stepped,
        )
        for node in nodes:
            fleet.bind(node)
        return fleet

    def bind(self, node: Node) -> None:
        """Make ``node``, its battery, its velocity model and its radio use slot ``node_id``.

        From then on they read and write this fleet's columns, so the
        node shows whatever state the fleet has reached.  A radio the
        fleet cannot own joins :attr:`volatile` instead; a
        :class:`FixedRange` needs neither.
        """
        i = node.node_id
        battery = node.battery
        mobility = node.mobility
        if node._fleet is not None or battery._fleet is not None:
            raise TopologyError(f"node {i} or its battery already belongs to a topology")
        if isinstance(mobility, RandomVelocity):
            if mobility._fleet is not None:
                raise TopologyError(f"node {i}'s mobility model already moves another node")
            mobility._fleet, mobility._slot = self, i
        radio = node.radio
        if _owned(node):
            if radio._fleet is not None:
                raise TopologyError(f"node {i}'s radio already belongs to a node")
            radio._fleet, radio._slot = self, i
        elif type(radio) is not FixedRange:
            self.volatile.append(i)
        node._fleet = battery._fleet = self
        battery._slot = i

    def couple(self) -> None:
        """Derive the coupled radios' ranges from their battery levels.

        The radio model's ``max(floor, base * level ** exponent)`` term by
        term: Python's ``**`` per level, since ``np.power`` and ``np.sqrt``
        differ from it in the last bit for some levels.
        """
        ids = self.coupled
        if ids.size:
            scaled = _np.fromiter(
                map(pow, self.level[ids].tolist(), self.exponent[ids].tolist()),
                _np.float64,
                ids.size,
            )
            _np.multiply(self.base[ids], scaled, out=scaled)
            _np.maximum(self.floor[ids], scaled, out=scaled)
            self.r[ids] = scaled

    def step(self, nodes: Sequence[Node], arena: Arena) -> None:
        """Advance every node one step: its battery drains, then it moves.

        Equal, column by column, to :meth:`Node.advance` on each node.
        Stock models step as array operations, bit-identical to the
        scalar ones: linear and exponential drains, the ranges of the
        coupled radios (:meth:`couple`), and straight-line motion
        inside the arena.  A node that would cross the boundary reflects
        through its own :class:`~repro.net.mobility.RandomVelocity`, and
        any other mobility or drain model steps its node itself; those
        are the only nodes of ``nodes`` (a :class:`NodeSequence`) read.
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
        self.couple()
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


def _owned(node: Node) -> bool:
    """Whether the fleet owns ``node``'s radio's parameters: a stock radio
    whose range changes, coupled (if at all) to the node's own battery."""
    radio = node.radio
    kind = type(radio)
    return kind is HeterogeneousRange or (
        kind is BatteryCoupledRange and radio.battery is node.battery
    )


class NodeSequence(abc.Sequence):
    """A topology's nodes by id, each built the first time it is read.

    ``nodes`` holds each node, or ``None`` for one not built yet, which
    ``make(i)`` builds at its drawn state; the sequence then binds it to
    the fleet's slot (:meth:`Fleet.bind`), so it shows the state the
    fleet has reached.  A node not built cannot have been changed: every
    change other than the fleet's own goes through a node object.
    Indexing builds one node; iterating builds every node, and once all
    are built it is a plain list iteration.
    """

    def __init__(
        self,
        fleet: Fleet,
        nodes: List[Optional[Node]],
        make: Optional[Callable[[NodeId], Node]] = None,
    ) -> None:
        self.fleet = fleet
        self._nodes = nodes
        self._make = make
        self._unbuilt = nodes.count(None)

    def __len__(self) -> int:
        return len(self._nodes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self._nodes)))]
        node = self._nodes[index]
        if node is None:
            node = self._build(index % len(self._nodes))
        return node

    def __iter__(self) -> Iterator[Node]:
        if self._unbuilt:
            for i, node in enumerate(self._nodes):
                if node is None:
                    self._build(i)
        return iter(self._nodes)

    def built(self) -> List[Node]:
        """The nodes built so far, by id."""
        if not self._unbuilt:
            return self._nodes
        return [node for node in self._nodes if node is not None]

    def _build(self, i: NodeId) -> Node:
        node = self._nodes[i] = self._make(i)
        self.fleet.bind(node)
        self._unbuilt -= 1
        return node


class Topology:
    """Directed wireless topology over a fixed set of nodes."""

    def __init__(self, nodes: Sequence[Node], arena: Arena) -> None:
        """A topology over ``nodes``, ids ``0..n-1`` in order.

        ``nodes`` is either node objects, whose state the new fleet takes
        over, or a :class:`NodeSequence` whose fleet already holds it.
        """
        if not isinstance(nodes, NodeSequence):
            if not nodes:
                raise TopologyError("a topology needs at least one node")
            ids = [node.node_id for node in nodes]
            if ids != list(range(len(nodes))):
                raise TopologyError("node ids must be contiguous 0..n-1 in order")
            given = list(nodes)
            nodes = NodeSequence(Fleet.of_nodes(given), given)
        #: the node objects by id, each built the first time it is read.
        self.nodes = nodes
        self._n = len(nodes)
        self.arena = arena
        #: the nodes' state, which the nodes read and write.
        self.fleet = nodes.fleet
        self._gateways: List[NodeId] = _np.flatnonzero(self.fleet.gateway).tolist()
        #: sorted packed ``u * n + v`` edges: the adjacency itself.
        self._edges = _np.empty(0, dtype=_np.int64)
        #: the rows of ``_edges``, a new view on first read after a change.
        self._view: Optional[AdjacencyView] = None
        self._dirty = True
        self._down: Set[NodeId] = set()
        self._blocked: Set[Edge] = set()
        #: set by :mod:`repro.net.manual` for pinned (non-geometric) graphs.
        self._pinned = False
        self.stats = TopologyStats()
        #: the refresh's run the current adjacency was applied from;
        #: ``None`` until the first refresh.
        self._engine_run: Optional[_LinkRun] = None
        self._epoch = 0
        #: the consistency check's last oracle evaluation, reused while
        #: the inputs read from the nodes stay equal.
        self._oracle_run: Optional[_LinkRun] = None
        #: the memo of the blueprint this topology was copied from, if any.
        self._memo: Optional[LinkMemo] = None

    # ------------------------------------------------------------------
    # Recomputation
    # ------------------------------------------------------------------

    def invalidate(self) -> None:
        """Mark the adjacency stale after changing a node outside :meth:`advance`.

        Re-derives the coupled radios' ranges from the battery levels, so
        a battery shock takes effect; the other radios write their ranges
        as they change.
        """
        self._dirty = True
        self.fleet.couple()

    def _read_volatile(self) -> None:
        """Re-read the ranges of the fleet's volatile radios into its ``r`` column."""
        volatile = self.fleet.volatile
        if volatile:
            nodes = self.nodes
            self.fleet.r[volatile] = [nodes[i].current_range() for i in volatile]

    def recompute(self) -> None:
        """Bring the adjacency up to date with positions and ranges.

        The link kernel recomputes the packed edge set (:meth:`_lookup`)
        and counts its diff against the previous one in :attr:`stats`;
        nodes marked down (:meth:`set_node_down`) have their radios
        silenced and blacked-out links (:meth:`block_edge`) stay
        suppressed, exactly as in :meth:`force_full_rebuild`.  Inputs
        equal to the last applied run's only bump the epoch.
        """
        self._read_volatile()
        last = self._engine_run
        run = self._lookup(last, "engine", _kernel_edges, self._engine_inputs())
        if run is last:
            self._epoch += 1
            self._dirty = False
        else:
            self._engine_run = run
            self._apply(run.edges, full=last is None)

    def force_full_rebuild(self) -> None:
        """Rebuild the adjacency from scratch with the reference sweep."""
        self._adopt(self._compute_adjacency())

    def _adopt(self, edges) -> None:
        """Take ``edges``, the sorted packed edges of the state now, afresh."""
        self._read_volatile()
        self._engine_run = _LinkRun(_state_bytes(*self._engine_inputs()), edges)
        self._apply(edges, full=True)

    def _engine_inputs(self):
        """The refresh's inputs: the fleet's columns and the fault state."""
        fleet = self.fleet
        return fleet.x, fleet.y, fleet.r, self._down, self._blocked

    def _lookup(self, last: Optional[_LinkRun], table: str, compute, inputs) -> _LinkRun:
        """The run of ``compute(*inputs)``, computed only if no run holds it.

        ``last`` if its state is equal to the inputs', then the memo's
        run from its ``table`` (``"engine"`` or ``"oracle"``), then a new
        run.  ``compute`` is pure, so every answer is what it would return.
        """
        state = _state_bytes(*inputs)
        if last is not None and last.state == state:
            return last
        memo = self._memo
        if memo is not None:
            return memo.run(getattr(memo, table), compute, state, inputs)
        return _LinkRun(state, compute(*inputs))

    def _read_inputs(self):
        """Copies of the fleet's positions and ranges, the derived ranges re-derived.

        Never the ranges the fleet derived: the reference path recomputes
        each coupled radio's range from its battery level with the radio
        model's scalar arithmetic, not :meth:`Fleet.couple`'s, and reads
        each volatile radio through its node, so a shock or a change
        behind a missed invalidate shows.
        """
        fleet = self.fleet
        r = fleet.r.copy()
        ids = fleet.coupled
        if ids.size:
            r[ids] = [
                max(floor, base * level**exponent)
                for base, level, exponent, floor in zip(
                    fleet.base[ids].tolist(),
                    fleet.level[ids].tolist(),
                    fleet.exponent[ids].tolist(),
                    fleet.floor[ids].tolist(),
                )
            ]
        volatile = fleet.volatile
        if volatile:
            nodes = self.nodes
            r[volatile] = [nodes[i].current_range() for i in volatile]
        return fleet.x.copy(), fleet.y.copy(), r

    def _compute_adjacency(self):
        """The reference sweep (:func:`_sweep_edges`) of the current state."""
        return _sweep_edges(*self._read_inputs(), self._down, self._blocked)

    # ------------------------------------------------------------------
    # Incremental engine
    # ------------------------------------------------------------------

    def _without_faults(self, edges):
        """Sorted packed ``edges`` minus down nodes' links and blocked links.

        How a pinned graph (:mod:`repro.net.manual`) honours fault state;
        a geometric refresh leaves down nodes out of the kernel instead.
        """
        if self._down:
            down = _np.fromiter(self._down, _np.int64)
            ends = _np.divmod(edges, self._n)
            edges = edges[~(_np.isin(ends[0], down) | _np.isin(ends[1], down))]
        return _without_links(edges, self._blocked, self._n)

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
            view = self._view = AdjacencyView(edges, self._n)
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
        return self._n

    @property
    def node_ids(self) -> range:
        """All node ids (contiguous)."""
        return range(self._n)

    def node(self, node_id: NodeId) -> Node:
        """The node object with id ``node_id`` (negative ids are unknown)."""
        self._check_id(node_id)
        return self.nodes[node_id]

    def _check_id(self, node_id: NodeId) -> None:
        if not 0 <= node_id < self._n:
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
        sources, targets = _np.divmod(self._current(), self._n)
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
        sources, targets = _np.divmod(self._current(), self._n)
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
        down = self._down
        return [node for node in self._gateways if node not in down]

    @property
    def all_gateway_ids(self) -> List[NodeId]:
        """Ids of every gateway node, up or down, ascending."""
        return list(self._gateways)

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

        Positions and ranges are read on every call (:meth:`_read_inputs`).
        The sweep's edges and rows are reused (:meth:`_lookup`) only when
        those reads, the down set and the blocked set are bit for bit the
        inputs of the previous call's sweep, or of a sweep stored in the
        blueprint's :class:`LinkMemo`; the sweep is a pure function of
        them, so reuse returns exactly what a fresh sweep would.  Nothing
        else the engine keeps (the fleet's derived ranges, its last
        refresh run, epochs) takes part, so a moved node, a shock or a
        degrade behind a missed :meth:`invalidate`, a corrupted array or
        a mutated row is flagged in the call that first sees it.  A sound
        structure costs one array compare and one list compare per served
        row; only a mismatch pays for the messages naming each missing
        and phantom edge.
        """
        edges = self._current()
        n = self._n
        run = None
        if not self._pinned:
            inputs = (*self._read_inputs(), self._down, self._blocked)
            run = self._oracle_run = self._lookup(self._oracle_run, "oracle", _sweep_edges, inputs)
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
        self._check_id(node_id)
        if node_id in self._down:
            return False
        self._down.add(node_id)
        self.invalidate()
        return True

    def set_node_up(self, node_id: NodeId) -> bool:
        """Recover a crashed node; returns whether the state changed."""
        self._check_id(node_id)
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
        self._check_id(source)
        self._check_id(destination)
        edge = (source, destination)
        if edge in self._blocked:
            return False
        self._blocked.add(edge)
        self.invalidate()
        return True

    def unblock_edge(self, source: NodeId, destination: NodeId) -> bool:
        """Lift a link blackout; returns whether the state changed."""
        self._check_id(source)
        self._check_id(destination)
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
        self._read_volatile()
        fleet = self.fleet
        return fleet.x, fleet.y, fleet.r
