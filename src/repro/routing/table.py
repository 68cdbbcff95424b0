"""Per-node routing tables.

"Every node has a simple routing table which agents update frequently …
they put a route to one of the gateways that they have just visited in
the node's routing table" (§III-A).  A table keeps at most one entry per
gateway — the best seen so far, where *best* is freshest installation
time, then fewest hops.  Entries expire after ``ttl`` steps: in a MANET
a route installed long ago points along links that have likely moved
away, and expiry is what makes connectivity fluctuate rather than
saturate.

Staleness is controlled on two axes:

* **age** — TTL expiry drops entries whose local link pointer is old,
* **sequence** — each table keeps, per gateway, the highest sequence
  number it has ever accepted (the installing agent's gateway-sighting
  time).  An arriving entry with a *lower* sequence is rejected even if
  the slot is currently empty: a late, worse route delivered by a slow
  or retried carrier can never overwrite — or resurrect after expiry —
  information the node already had fresher.  The floors survive entry
  expiry (that is the point) and reset only when the node itself loses
  its table (crash / ``clear``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, ItemsView, Iterator, List, Optional

from repro.errors import RoutingError
from repro.types import NodeId, Time

__all__ = ["RouteEntry", "TableGuard", "RoutingTable", "TableBank"]


@dataclass(frozen=True)
class TableGuard:
    """Write-sanity bounds limiting what one agent visit can install.

    A corrupted agent forges attractive knowledge two ways: hop counts
    far better than anything the node has seen (so its route wins the
    preference order), and sequence numbers stamped ahead of the clock
    (so honest refreshes are rejected by the floor for a long time).
    The guard bounds both:

    * ``max_hop_improvement`` — a new entry may undercut the incumbent
      toward the same gateway by at most this many hops; honest route
      discovery shortens paths gradually, forgery jumps.  The default
      is deliberately loose — mobility legitimately shortens a route by
      several hops when a gateway wanders close, and measurement shows
      tighter bounds mostly reject honest refreshes (the future-stamped
      sequence is what actually identifies every forged write).
    * ``max_sequence_ahead`` — an entry's sequence (the claimed
      gateway-sighting time) may exceed its installation time by at most
      this much; honest sightings are always in the past.

    Frozen and hashable so it rides inside the frozen world configs.
    """

    max_hop_improvement: int = 6
    max_sequence_ahead: int = 0

    def __post_init__(self) -> None:
        if self.max_hop_improvement < 1:
            raise RoutingError(
                f"max_hop_improvement must be >= 1, got {self.max_hop_improvement}"
            )
        if self.max_sequence_ahead < 0:
            raise RoutingError(
                f"max_sequence_ahead must be >= 0, got {self.max_sequence_ahead}"
            )


@dataclass(frozen=True)
class RouteEntry:
    """One route: toward ``gateway``, leave via ``next_hop``.

    ``gateway_seen_at`` is when the installing agent actually stood on
    the gateway — the currency of the information.  ``installed_at`` is
    when the entry was written — the age of the *local* link pointer,
    which is what TTL expiry keys on.  Ranking routes by installation
    time instead of gateway currency lets a long, circuitous, stale
    track displace a short fresh one merely because its carrier arrived
    later; that measurably inverts the paper's history-size effect.
    """

    gateway: NodeId
    next_hop: NodeId
    hops: int
    installed_at: Time
    gateway_seen_at: Time = 0
    #: monotonic staleness stamp, compared against the table's
    #: per-gateway floor on install (worlds stamp the gateway-sighting
    #: time).  The default 0 keeps sequence-unaware callers working.
    sequence: int = 0

    def fresher_than(self, other: "RouteEntry") -> bool:
        """Replacement order: newer gateway sighting, then fewer hops,
        then newer installation."""
        if self.gateway_seen_at != other.gateway_seen_at:
            return self.gateway_seen_at > other.gateway_seen_at
        if self.hops != other.hops:
            return self.hops < other.hops
        return self.installed_at > other.installed_at


class RoutingTable:
    """A node's routes, at most one (the best) per gateway."""

    def __init__(
        self, ttl: Optional[int] = None, guard: Optional[TableGuard] = None
    ) -> None:
        if ttl is not None and ttl < 1:
            raise RoutingError(f"ttl must be >= 1 or None, got {ttl}")
        self.ttl = ttl
        self.guard = guard
        #: writes the guard refused, monotonic over the table's life
        #: (never reset by :meth:`clear` — conservation against the
        #: worlds' overhead counters depends on it).
        self.guard_rejections = 0
        self._entries: Dict[NodeId, RouteEntry] = {}
        #: per-gateway high-water mark of accepted sequence numbers;
        #: survives TTL expiry so resurrection of stale routes is barred.
        self._sequence_floors: Dict[NodeId, int] = {}
        self._ranked: Optional[List[RouteEntry]] = None
        self._hops_ranked: Optional[tuple] = None
        #: lower bound on the oldest ``installed_at`` present; lets
        #: :meth:`expire` skip the scan when nothing can be stale yet.
        self._oldest: Optional[Time] = None

    def __len__(self) -> int:
        return len(self._entries)

    def _touch(self) -> None:
        """Forget the memoized rankings after a content change."""
        self._ranked = None
        self._hops_ranked = None

    def install(self, entry: RouteEntry) -> bool:
        """Install ``entry`` unless a better route to its gateway exists.

        An entry whose sequence number is below the table's per-gateway
        floor is rejected outright — even into an empty slot — so a
        delayed carrier cannot reintroduce information the node already
        saw fresher.  Returns whether the table changed.  The verdict is
        :meth:`install_fast`'s.
        """
        return self.install_fast(
            entry.gateway,
            entry.next_hop,
            entry.hops,
            entry.installed_at,
            entry.gateway_seen_at,
            entry.sequence,
        )

    def install_fast(
        self,
        gateway: NodeId,
        next_hop: NodeId,
        hops: int,
        installed_at: Time,
        gateway_seen_at: Time,
        sequence: int,
    ) -> bool:
        """:meth:`install` from scalars, building an entry only on accept.

        The batch agent engine installs tens of routes per step and most
        lose — to the sequence floor, the guard, or a fresher incumbent.
        Deciding on the raw fields first skips the frozen-dataclass
        construction for every rejected write.
        """
        if hops < 1:
            raise RoutingError(f"a route must be at least 1 hop, got {hops}")
        if sequence < self._sequence_floors.get(gateway, 0):
            return False
        current = self._entries.get(gateway)
        guard = self.guard
        if guard is not None:
            # Worlds stamp installed_at with the current step, so a
            # sequence past installed_at claims a gateway sighting in
            # the future — only a forger can produce one.
            if sequence - installed_at > guard.max_sequence_ahead:
                self.guard_rejections += 1
                return False
            if current is not None and current.hops - hops > guard.max_hop_improvement:
                self.guard_rejections += 1
                return False
        if current is not None:
            # Inlined RouteEntry.fresher_than on the raw fields.
            if gateway_seen_at != current.gateway_seen_at:
                if gateway_seen_at < current.gateway_seen_at:
                    return False
            elif hops != current.hops:
                if hops > current.hops:
                    return False
            elif installed_at <= current.installed_at:
                return False
        self._entries[gateway] = RouteEntry(
            gateway=gateway,
            next_hop=next_hop,
            hops=hops,
            installed_at=installed_at,
            gateway_seen_at=gateway_seen_at,
            sequence=sequence,
        )
        self._sequence_floors[gateway] = sequence
        if self._oldest is None or installed_at < self._oldest:
            self._oldest = installed_at
        self._touch()
        return True

    def sequence_floor(self, gateway: NodeId) -> int:
        """The lowest sequence number still accepted toward ``gateway``."""
        return self._sequence_floors.get(gateway, 0)

    def expire(self, now: Time) -> int:
        """Drop entries ``ttl`` or more steps old; returns how many dropped.

        An entry installed at time ``t`` survives queries at times
        ``t .. t + ttl - 1`` and is dropped by ``expire(t + ttl)`` —
        exactly the docstring's "expire after ``ttl`` steps".  (An
        earlier off-by-one let an entry exactly ``ttl`` old survive one
        extra step, visibly shifting the connectivity curve at small
        TTLs.)
        """
        if self.ttl is None:
            return 0
        horizon = now - self.ttl
        oldest = self._oldest
        if oldest is None or oldest > horizon:
            return 0
        stale = [g for g, e in self._entries.items() if e.installed_at <= horizon]
        if not stale:
            # The recorded bound was conservative (a drop removed the
            # oldest entry); tighten it so the next calls short-circuit.
            self._oldest = min(e.installed_at for e in self._entries.values()) \
                if self._entries else None
            return 0
        for gateway in stale:
            del self._entries[gateway]
        self._oldest = horizon + 1 if self._entries else None
        self._touch()
        return len(stale)

    def entries_by_preference(self) -> List[RouteEntry]:
        """All entries, most preferred first.

        Preference mirrors :meth:`RouteEntry.fresher_than`: most recent
        gateway sighting, then fewest hops.

        The ranking is memoized until the table next changes (it sits on
        the connectivity-walk hot path); treat the returned list as
        read-only.
        """
        ranked = self._ranked
        if ranked is None:
            ranked = sorted(
                self._entries.values(),
                key=lambda e: (-e.gateway_seen_at, e.hops, -e.installed_at, e.gateway),
            )
            self._ranked = ranked
        return ranked

    def hops_by_preference(self) -> tuple:
        """The ``next_hop`` ids of :meth:`entries_by_preference`, memoized.

        This is all a connectivity walk reads of a table, and doubles as
        the table's *next-hop signature*: two tables with equal tuples
        route every walk identically.  Memoized until the table changes.
        """
        hops = self._hops_ranked
        if hops is None:
            hops = tuple(entry.next_hop for entry in self.entries_by_preference())
            self._hops_ranked = hops
        return hops

    def entry_for(self, gateway: NodeId) -> Optional[RouteEntry]:
        """The current entry toward ``gateway`` (or ``None``)."""
        return self._entries.get(gateway)

    def entries(self) -> List[RouteEntry]:
        """All current entries in gateway order (cheap, unranked)."""
        return [self._entries[gateway] for gateway in sorted(self._entries)]

    def clear(self) -> None:
        """Drop every entry and forget the sequence floors.

        Clearing models the node losing its table wholesale (a crash);
        the reborn node has no memory of what it once accepted.
        """
        self._entries.clear()
        self._sequence_floors.clear()
        self._oldest = None
        self._touch()

    def drop_routes_via(self, node: NodeId) -> int:
        """Drop entries that lead through or toward a dead ``node``.

        Removes every entry whose next hop *or* gateway is ``node`` —
        both are useless once the node crashes.  Returns how many
        entries were dropped.
        """
        doomed = [
            gateway
            for gateway, entry in self._entries.items()
            if entry.next_hop == node or entry.gateway == node
        ]
        for gateway in doomed:
            del self._entries[gateway]
        if doomed:
            self._touch()
        return len(doomed)

    def drop_routes_via_next_hop(self, node: NodeId) -> int:
        """Drop entries whose *next hop* is ``node`` (link suspicion).

        Unlike :meth:`drop_routes_via`, entries whose **gateway** is
        ``node`` survive: an unreachable neighbour says nothing about
        the gateway itself, only about this one outgoing link.  Returns
        how many entries were dropped.
        """
        doomed = [
            gateway
            for gateway, entry in self._entries.items()
            if entry.next_hop == node
        ]
        for gateway in doomed:
            del self._entries[gateway]
        if doomed:
            self._touch()
        return len(doomed)

    def export_state(self) -> dict:
        """Detach this table's logical contents for transfer.

        The sharded runtime hands a node's table between tile banks when
        the node crosses a tile boundary.  Everything that defines the
        node's routing memory travels — entries, sequence floors, the
        monotonic guard-rejection count, the expiry bound — while the
        bank wiring (ttl, guard) stays with each bank's own table
        object.  The origin table is left empty, as if freshly built;
        the returned dict is plain picklable data for
        :meth:`adopt_state` on the destination.
        """
        state = {
            "entries": self._entries,
            "floors": self._sequence_floors,
            "guard_rejections": self.guard_rejections,
            "oldest": self._oldest,
        }
        self._entries = {}
        self._sequence_floors = {}
        self.guard_rejections = 0
        self._oldest = None
        self._touch()
        return state

    def adopt_state(self, state: dict) -> None:
        """Take over contents captured by :meth:`export_state`."""
        self._entries = state["entries"]
        self._sequence_floors = state["floors"]
        self.guard_rejections = state["guard_rejections"]
        self._oldest = state["oldest"]
        self._touch()

    def corrupt(self, rng, node_ids: List[NodeId]) -> int:
        """Scramble every entry's next hop to a random node (fault model).

        Models a corrupted routing table whose entries still *look*
        plausible: gateways and hop counts survive but the next-hop
        pointers are garbage.  Returns how many entries were scrambled.
        """
        if not node_ids:
            return 0
        for gateway in sorted(self._entries):
            entry = self._entries[gateway]
            self._entries[gateway] = RouteEntry(
                gateway=entry.gateway,
                next_hop=rng.choice(node_ids),
                hops=entry.hops,
                installed_at=entry.installed_at,
                gateway_seen_at=entry.gateway_seen_at,
                sequence=entry.sequence,
            )
        if self._entries:
            self._touch()
        return len(self._entries)


class TableBank:
    """The routing tables of every node, keyed by node id.

    Nodes run no programs (§III-A), so the tables live here in the
    substrate — written by agents, read by the connectivity metric and
    the packet simulator.  A table gains entries only where an agent has
    passed, so the bank builds a node's table on the first
    :meth:`table` call for it; read-only paths use :meth:`get` and
    :meth:`hops_by_preference`, which build nothing.  A node without a
    table behaves exactly like one with a fresh, empty table.
    """

    def __init__(
        self,
        node_count: int,
        ttl: Optional[int] = None,
        guard: Optional[TableGuard] = None,
    ) -> None:
        if node_count < 1:
            raise RoutingError(f"node_count must be >= 1, got {node_count}")
        if ttl is not None and ttl < 1:
            raise RoutingError(f"ttl must be >= 1 or None, got {ttl}")
        self.node_count = node_count
        self.ttl = ttl
        self.guard = guard
        #: the tables built so far, by node id.
        self._tables: Dict[NodeId, RoutingTable] = {}

    def __len__(self) -> int:
        return self.node_count

    def table(self, node: NodeId) -> RoutingTable:
        """The routing table of ``node``, built on first use."""
        table = self._tables.get(node)
        if table is None:
            if not 0 <= node < self.node_count:
                raise RoutingError(f"no table for node {node}")
            table = self._tables[node] = RoutingTable(self.ttl, self.guard)
        return table

    def get(self, node: NodeId) -> Optional[RoutingTable]:
        """The table of ``node`` if one was built, else ``None``."""
        return self._tables.get(node)

    def built(self) -> ItemsView[NodeId, RoutingTable]:
        """``(node, table)`` for every table built so far, in build order."""
        return self._tables.items()

    def hops_by_preference(self, node: NodeId) -> tuple:
        """:meth:`RoutingTable.hops_by_preference` of ``node``'s table.

        ``()`` for a node without a table; builds nothing.
        """
        table = self._tables.get(node)
        return () if table is None else table.hops_by_preference()

    def expire_all(self, now: Time) -> int:
        """Expire stale entries in every table; returns total dropped.

        Every table shares the bank's TTL, so the per-table staleness
        bound is checked here and tables with nothing old enough are
        skipped without the method call (most tables, most steps).
        """
        if self.ttl is None:
            return 0
        horizon = now - self.ttl
        dropped = 0
        for table in self._tables.values():
            oldest = table._oldest
            if oldest is not None and oldest <= horizon:
                dropped += table.expire(now)
        return dropped

    def invalidate_node(self, node: NodeId) -> int:
        """Graceful degradation after ``node`` crashes.

        Wipes the dead node's own table and drops, bank-wide, every
        route that points through or toward it.  Returns the total
        number of entries removed.
        """
        own = self.table(node)
        dropped = len(own)
        own.clear()
        return dropped + sum(table.drop_routes_via(node) for table in self._tables.values())

    def all_entries(self) -> Iterator[RouteEntry]:
        """Every table's entries, in no promised order (bulk scans)."""
        return chain.from_iterable(
            table._entries.values() for table in self._tables.values()
        )

    def total_entries(self) -> int:
        """Total live entries across all tables (diagnostics)."""
        return sum(len(table) for table in self._tables.values())

    def total_guard_rejections(self) -> int:
        """Writes the guards refused, bank-wide (conservation checks)."""
        return sum(table.guard_rejections for table in self._tables.values())
