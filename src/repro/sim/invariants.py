"""Runtime cross-layer invariant checking.

A seeded simulation that silently enters an inconsistent state is worse
than one that crashes: every metric computed afterwards is quietly
wrong.  :class:`InvariantChecker` subscribes to the engine's
``step_end`` hook and validates, after every step, the contracts the
layers rely on but none of them owns:

* every *acting* agent stands on a live, existing node (a frozen agent
  may legally wait on a crashed node — it is suspended, not acting),
* no routing-table entry points at a crashed next hop, references an
  unknown node, claims fewer than one hop, or outlives its TTL,
* every stigmergy footprint lives on a live, existing node and points
  at an existing node,
* the link topology never exposes a down node or a blocked edge in its
  packed edge array — the adjacency every neighbour read is served
  from, so connectivity can never be computed through a down link,
* the incremental topology engine is sound: its packed edge array and
  the out-neighbour rows served from it equal (for geometric
  topologies) what the topology's reference sorted-sweep oracle
  computes from scratch for this step's positions, ranges and faults,
* the traffic plane conserves payloads exactly: ``generated ==
  delivered + expired + dropped + alive``, the ledger's copy counts
  match the buffers' physical contents, and no queue exceeds capacity.

Every step pays only for what it can have changed.  The routing-table
and footprint contracts are first tested with a few set and min
expressions over all entries and marks; the ordered per-node walk that
names each violation runs only when that test fails.  The oracle's
edges are reused while its inputs are unchanged (see
:meth:`~repro.net.topology.Topology.consistency_problems`).  Neither
shortcut can delay a verdict: both decide from this step's state alone.

The checker is opt-in per world (``check_invariants`` in the world
configs, ``--check-invariants`` on the CLI) and on by default under the
test suite via the ``REPRO_CHECK_INVARIANTS`` environment variable.  A
violation raises :class:`~repro.errors.InvariantError` naming every
broken contract; pass ``raise_on_violation=False`` to collect instead
(the ``loss1`` experiment reports the count across its sweep).
"""

from __future__ import annotations

import os
from operator import attrgetter
from typing import Any, FrozenSet, List

import numpy as _np

from repro.errors import InvariantError
from repro.types import Time

__all__ = ["InvariantChecker", "default_invariants_enabled"]

#: Environment variable that switches the default on (tests set it).
ENV_FLAG = "REPRO_CHECK_INVARIANTS"


_GATEWAY = attrgetter("gateway")
_NEXT_HOP = attrgetter("next_hop")
_HOPS = attrgetter("hops")
_INSTALLED_AT = attrgetter("installed_at")
_TARGET = attrgetter("target")


def default_invariants_enabled() -> bool:
    """Whether worlds with ``check_invariants=None`` should check.

    Controlled by the ``REPRO_CHECK_INVARIANTS`` environment variable;
    unset, empty, ``0``, ``false``, ``no``, and ``off`` mean disabled.
    """
    value = os.environ.get(ENV_FLAG, "")
    return value.strip().lower() not in ("", "0", "false", "no", "off")


class InvariantChecker:
    """Validates one world's cross-layer state after every step.

    World-agnostic via the same ``getattr`` protocol the fault injector
    uses: ``topology`` and ``agents`` are required; ``tables``,
    ``field``, and ``injector`` are consulted when present.
    """

    def __init__(self, world: Any, raise_on_violation: bool = True) -> None:
        self.world = world
        self.raise_on_violation = raise_on_violation
        #: steps validated so far.
        self.checks = 0
        #: every violation message collected across the run.
        self.violations: List[str] = []
        self._installed = False
        #: every node id of the world's topology (fixed per topology).
        self._node_ids: FrozenSet[int] = frozenset()

    def install(self) -> None:
        """Subscribe to the engine's ``step_end`` hook (idempotent).

        Under ``--profile`` the checks are timed as their own
        ``invariants`` phase, apart from the rest of ``hook:step_end``.
        """
        if self._installed:
            return
        self._installed = True
        self.world.engine.hooks.subscribe("step_end", self._on_step_end, phase="invariants")

    def _on_step_end(self, time: Time, **_: Any) -> None:
        self.check_now(time)

    def check_now(self, now: Time) -> List[str]:
        """Scan the world; record, and possibly raise, any violations."""
        problems = self.scan(now)
        self.checks += 1
        if problems:
            self.violations.extend(problems)
            if self.raise_on_violation:
                raise InvariantError(
                    f"invariant violation(s) at step {now}: " + "; ".join(problems)
                )
        return problems

    # ------------------------------------------------------------------
    # The scan
    # ------------------------------------------------------------------

    def scan(self, now: Time) -> List[str]:
        """Every currently broken contract, as human-readable messages."""
        problems: List[str] = []
        topology = self.world.topology
        node_ids = self._node_ids
        if len(node_ids) != topology.node_count:
            node_ids = self._node_ids = frozenset(topology.node_ids)
        down = topology.down_ids
        self._scan_agents(problems, node_ids, down)
        self._scan_tables(problems, now, node_ids, down)
        self._scan_footprints(problems, node_ids, down)
        self._scan_topology(problems, node_ids, down)
        self._scan_traffic(problems)
        self._scan_engine(problems)
        self._scan_health(problems, node_ids, down)
        self._scan_guard(problems)
        return problems

    def _acting_agents(self) -> List[Any]:
        injector = getattr(self.world, "injector", None)
        if injector is not None:
            return injector.active_agents()
        return list(self.world.agents)

    def _scan_agents(self, problems: List[str], node_ids, down) -> None:
        for agent in self._acting_agents():
            if agent.location not in node_ids:
                problems.append(
                    f"agent {agent.agent_id} stands on unknown node {agent.location}"
                )
            elif agent.location in down:
                problems.append(
                    f"agent {agent.agent_id} acts on down node {agent.location}"
                )

    def _scan_tables(self, problems: List[str], now: Time, node_ids, down) -> None:
        tables = getattr(self.world, "tables", None)
        if tables is not None and _tables_violated(tables, now, node_ids, down):
            problems.extend(_table_problems(tables, now, node_ids, down))

    def _scan_footprints(self, problems: List[str], node_ids, down) -> None:
        field = getattr(self.world, "field", None)
        if field is not None and _footprints_violated(field, node_ids, down):
            problems.extend(_footprint_problems(field, node_ids, down))

    def _scan_topology(self, problems: List[str], node_ids, down) -> None:
        """No link leaves or enters a down node, and no blocked link shows.

        One pass over the topology's packed edge array; only flagged
        edges are turned into messages, in edge order: per source node
        ascending, its down-node message first, then per neighbour
        ascending the down-target and blocked-link messages.
        """
        topology = self.world.topology
        blocked = topology.blocked_edges
        # Every check below tests membership in ``down`` or ``blocked``.
        if not down and not blocked:
            return
        n = topology.node_count
        edges = topology.packed_edges()
        sources, targets = _np.divmod(edges, n)
        from_down = _np.isin(sources, list(down))
        to_down = _np.isin(targets, list(down))
        exposed = _np.isin(edges, [u * n + v for u, v in blocked])
        last = None
        for k in _np.flatnonzero(from_down | to_down | exposed).tolist():
            node, neighbor = divmod(int(edges[k]), n)
            if from_down[k] and node != last:
                last = node
                problems.append(f"down node {node} still has out-links")
            if to_down[k]:
                problems.append(f"link {node}->{neighbor} leads to a down node")
            if exposed[k]:
                problems.append(f"blocked link {node}->{neighbor} is exposed")

    def _scan_traffic(self, problems: List[str]) -> None:
        """The data plane's payload-conservation contract.

        Delegates to :meth:`~repro.traffic.plane.TrafficPlane.
        consistency_problems`, which recomputes, from first principles,
        that ``generated == delivered + expired + dropped + alive``,
        that the ledger's per-payload copy counts match what the buffers
        physically hold, and that no buffer exceeds its capacity.
        """
        plane = getattr(self.world, "traffic", None)
        if plane is None:
            return
        problems.extend(plane.consistency_problems())

    def _scan_health(self, problems: List[str], node_ids, down) -> None:
        """Quarantine must never partition a healthy graph.

        For every live node that has at least one live out-neighbor,
        :meth:`~repro.net.health.HealthMonitor.filter_targets` must
        return a non-empty candidate list — the never-isolate fallback
        is a hard contract, not a best effort.
        """
        health = getattr(self.world, "health", None)
        if health is None:
            return
        topology = self.world.topology
        for node in sorted(node_ids):
            if node in down:
                continue
            neighbors = [
                n for n in topology.out_neighbors(node) if n not in down
            ]
            if not neighbors:
                continue
            if not health.filter_targets(node, neighbors):
                problems.append(
                    f"quarantine isolates node {node}: all {len(neighbors)} "
                    "live neighbors filtered out"
                )

    def _scan_guard(self, problems: List[str]) -> None:
        """Guard rejections must be conserved in the overhead meters.

        Every install the table guard refuses is charged to the visiting
        agent's ``routes_rejected`` counter; the world-wide sums must
        agree or rejections are being dropped from the overhead story.
        """
        tables = getattr(self.world, "tables", None)
        if tables is None or getattr(tables, "guard", None) is None:
            return
        table_total = tables.total_guard_rejections()
        agent_total = sum(
            agent.overhead.routes_rejected for agent in self.world.agents
        )
        if table_total != agent_total:
            problems.append(
                f"guard rejections not conserved: tables count {table_total}, "
                f"agent overhead counts {agent_total}"
            )

    def _scan_engine(self, problems: List[str]) -> None:
        """The incremental topology engine's own consistency report.

        Compares the packed edge array, and the rows served from it, with
        the sorted-sweep oracle's edges for the positions, ranges and
        fault state the nodes hold this step — every step, so a
        divergence in the incremental bookkeeping fails the step it
        happens, not the metric it later corrupts.  The topology re-runs
        the sweep only when those inputs changed since its previous
        check (``Topology.consistency_problems``).
        """
        checker = getattr(self.world.topology, "consistency_problems", None)
        if checker is not None:
            problems.extend(checker())


# ----------------------------------------------------------------------
# Routing tables and footprints: a set test, then the ordered walk
# ----------------------------------------------------------------------
#
# Each scan comes in two parts.  The ``*_violated`` test answers
# "is anything broken?" with a few set and min expressions over every
# entry (or mark) at once; the ``*_problems`` walk visits nodes in id
# order and names each broken contract.  The walk runs only when the
# test says something is broken, so a sound step never pays for it and
# a broken one gets exactly the walk's messages, in the walk's order.
# The test is true exactly when the walk returns messages (property-
# checked on planted violations).


def _tables_violated(tables, now: Time, node_ids: FrozenSet[int], down) -> bool:
    """Whether :func:`_table_problems` would report anything.

    Every entry's gateway and next hop are known nodes, no next hop is
    down, every entry claims at least one hop and, under a TTL, every
    entry was installed after ``now - ttl``.
    """
    entries = list(tables.all_entries())
    if not entries:
        return False
    next_hops = set(map(_NEXT_HOP, entries))
    ttl = tables.ttl
    return not (
        next_hops <= node_ids
        and next_hops.isdisjoint(down)
        and set(map(_GATEWAY, entries)) <= node_ids
        and min(map(_HOPS, entries)) >= 1
        and (ttl is None or min(map(_INSTALLED_AT, entries)) > now - ttl)
    )


def _table_problems(tables, now: Time, node_ids, down) -> List[str]:
    """Every broken routing-table contract, per node ascending."""
    problems: List[str] = []
    for node in sorted(node_ids):
        table = tables.get(node)
        if table is None:
            continue
        for entry in table.entries():
            where = f"table of node {node}, gateway {entry.gateway}"
            if entry.gateway not in node_ids or entry.next_hop not in node_ids:
                problems.append(f"{where}: references unknown node")
                continue
            if entry.next_hop in down:
                problems.append(
                    f"{where}: next hop {entry.next_hop} is down"
                )
            if entry.hops < 1:
                problems.append(f"{where}: claims {entry.hops} hops")
            ttl = tables.ttl
            if ttl is not None and entry.installed_at <= now - ttl:
                problems.append(
                    f"{where}: entry installed at {entry.installed_at} "
                    f"outlived ttl {ttl} at step {now}"
                )
    return problems


def _footprints_violated(field, node_ids: FrozenSet[int], down) -> bool:
    """Whether :func:`_footprint_problems` would report anything.

    Every node holding marks is a known, live node, and every mark
    points at a known node.
    """
    marked = set()
    targets = set()
    for node, marks in field.marks_by_node():
        if marks:
            marked.add(node)
            targets.update(map(_TARGET, marks))
    return not (marked <= node_ids and targets <= node_ids and marked.isdisjoint(down))


def _footprint_problems(field, node_ids, down) -> List[str]:
    """Every broken footprint contract, per board's node ascending."""
    problems: List[str] = []
    for node, board in field.items():
        if len(board) == 0:
            continue
        if node not in node_ids:
            problems.append(f"footprint board on unknown node {node}")
            continue
        if node in down:
            problems.append(f"footprint board survives on down node {node}")
        for mark in board.all_marks():
            if mark.target not in node_ids:
                problems.append(
                    f"footprint on node {node} points at unknown "
                    f"node {mark.target}"
                )
    return problems
