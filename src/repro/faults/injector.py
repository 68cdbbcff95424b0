"""Wiring a :class:`FaultPlan` into a running world.

The injector is deliberately world-agnostic: it talks to a *world
protocol* — ``topology``, ``engine``, ``agents``, an optional
``tables`` (routing), optional ``field``/``pheromone`` substrates, and
an optional ``fault_topology_changed()`` callback — so the same code
degrades both scenarios.  Every action goes through
``TimeStepEngine.schedule_at``, which means faults fire inside the
deterministic event calendar: a faulted run is bit-identical whether it
executes serially or inside a ``multiprocessing`` worker.

Graceful-degradation semantics on a node crash:

* the node's radio is silenced and it drops out of
  :meth:`Topology.recompute` (no out- or in-links),
* routes through or toward it are invalidated bank-wide,
* its stigmergy footprints and pheromone trails are cleared,
* co-located agents die, respawn fresh on a random live node, or
  freeze in place, per the plan's ``agent_policy``.

Every applied action fires the ``fault_injected`` hook
(``time=, kind=, target=, applied=``) so metric collectors observe the
churn without the injector knowing who is listening.
"""

from __future__ import annotations

import random
from typing import Any, List, Optional, Set, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.faults.plan import FaultEvent, FaultPlan
from repro.types import AgentId, NodeId, Time

__all__ = ["FaultInjector"]


class FaultInjector:
    """Applies one fault plan to one world, deterministically."""

    def __init__(self, world: Any, plan: FaultPlan, rng: random.Random) -> None:
        self.world = world
        self.plan = plan
        self._rng = rng
        self._dead: Set[AgentId] = set()
        self._corrupted: Set[AgentId] = set()
        self._installed = False

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Schedule every plan event on the world's engine (once).

        Every node, edge endpoint and gateway an event names must exist
        in the world's network, or :class:`ConfigurationError` names the
        event before anything runs.  Agent ids are not checked: an event
        naming an agent the world lacks applies nothing when it fires.
        """
        if self._installed:
            raise SimulationError("fault plan already installed")
        for event in self.plan.events:
            self._check_target(event)
        self._installed = True
        engine = self.world.engine
        for event in self.plan.events:
            engine.schedule_at(
                event.time,
                lambda event=event: self._apply(event),
                label=f"fault:{event.describe()}",
            )

    # ------------------------------------------------------------------
    # Agent liveness
    # ------------------------------------------------------------------

    def is_alive(self, agent_id: AgentId) -> bool:
        """Whether the agent has not been killed by a fault."""
        return agent_id not in self._dead

    def is_corrupted(self, agent_id: AgentId) -> bool:
        """Whether a ``corruptagent`` fault turned this agent adversarial."""
        return agent_id in self._corrupted

    def active_agents(self) -> List[Any]:
        """Agents that act this step: alive and not stranded on a dead node.

        With the ``freeze`` policy an agent may survive on a crashed
        node; it stays suspended (skipped here) until the node recovers.
        """
        down = self.world.topology.down_ids
        return [
            agent
            for agent in self.world.agents
            if agent.agent_id not in self._dead and agent.location not in down
        ]

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------

    def _apply(self, event: FaultEvent) -> None:
        now = self.world.engine.clock.now
        kind = event.kind
        if kind == "crash":
            node = self._resolve_node(event)
            applied = self.world.topology.set_node_down(node)
            if applied:
                self._degrade_after_crash(node, now)
            target: Tuple[int, ...] = (node,)
        elif kind == "recover":
            node = self._resolve_node(event)
            applied = self.world.topology.set_node_up(node)
            if applied:
                self._notify_topology_changed()
            target = (node,)
        elif kind == "blackout":
            source, destination = event.target
            applied = self.world.topology.block_edge(source, destination)
            if applied:
                self._notify_topology_changed()
            target = event.target
        elif kind == "restore":
            source, destination = event.target
            applied = self.world.topology.unblock_edge(source, destination)
            if applied:
                self._notify_topology_changed()
            target = event.target
        elif kind == "shock":
            node = self._resolve_node(event)
            self.world.topology.node(node).battery.shock(event.amount)
            self.world.topology.invalidate()
            self._notify_topology_changed()
            applied = True
            target = (node,)
        elif kind == "kill":
            agent_id = event.target[0]
            applied = agent_id not in self._dead and any(
                agent.agent_id == agent_id for agent in self.world.agents
            )
            if applied:
                self._dead.add(agent_id)
            target = event.target
        elif kind == "wipe":
            node = self._resolve_node(event)
            tables = getattr(self.world, "tables", None)
            applied = tables is not None
            if tables is not None:
                tables.table(node).clear()
            target = (node,)
        elif kind == "corrupt":
            node = self._resolve_node(event)
            tables = getattr(self.world, "tables", None)
            applied = tables is not None
            if tables is not None:
                tables.table(node).corrupt(
                    self._rng, sorted(self.world.topology.node_ids)
                )
            target = (node,)
        elif kind == "lossburst":
            node = self._resolve_node(event)
            channel = getattr(self.world, "channel", None)
            applied = channel is not None and channel.set_burst(node, event.amount)
            target = (node,)
        elif kind == "lossclear":
            node = self._resolve_node(event)
            channel = getattr(self.world, "channel", None)
            applied = channel is not None and channel.clear_burst(node)
            target = (node,)
        elif kind == "grayfail":
            node = self._resolve_node(event)
            channel = getattr(self.world, "channel", None)
            applied = channel is not None and channel.set_grayfail(
                node, event.amount
            )
            target = (node,)
        elif kind == "grayclear":
            node = self._resolve_node(event)
            channel = getattr(self.world, "channel", None)
            applied = channel is not None and channel.clear_grayfail(node)
            target = (node,)
        elif kind == "corruptagent":
            agent_id = event.target[0]
            applied = agent_id not in self._corrupted and any(
                agent.agent_id == agent_id for agent in self.world.agents
            )
            if applied:
                self._corrupted.add(agent_id)
            target = event.target
        elif kind == "flap":
            applied = self._apply_flap(event, now)
            target = event.target
        else:  # pragma: no cover - FaultEvent validates kinds
            raise ConfigurationError(f"unknown fault kind {kind!r}")
        self.world.engine.hooks.fire(
            "fault_injected", time=now, kind=kind, target=target, applied=applied
        )

    def _apply_flap(self, event: FaultEvent, now: Time) -> bool:
        """Start a flap: first down-toggle now, the rest on the calendar.

        ``schedule_at`` only accepts strictly-future times, so the
        opening down-toggle applies inline; every later toggle lands on
        the engine's event calendar and therefore stays bit-identical
        between serial and pooled runs.  The target always settles up
        after the final cycle.
        """
        period = event.period
        down_steps = max(1, min(period - 1, int(round(event.amount * period))))
        applied = self._flap_toggle(event, down=True)
        engine = self.world.engine
        label = f"fault:{event.describe()}"
        for cycle in range(event.cycles):
            down_at = event.time + cycle * period
            if cycle > 0:
                engine.schedule_at(
                    down_at,
                    lambda event=event: self._flap_fire(event, down=True),
                    label=label,
                )
            engine.schedule_at(
                down_at + down_steps,
                lambda event=event: self._flap_fire(event, down=False),
                label=label,
            )
        return applied

    def _flap_fire(self, event: FaultEvent, down: bool) -> None:
        """One scheduled flap toggle, with its own hook firing."""
        now = self.world.engine.clock.now
        applied = self._flap_toggle(event, down=down)
        self.world.engine.hooks.fire(
            "fault_injected",
            time=now,
            kind="flap",
            target=event.target,
            applied=applied,
        )

    def _flap_toggle(self, event: FaultEvent, down: bool) -> bool:
        """Apply one up/down transition of a flapping node or link."""
        topology = self.world.topology
        if len(event.target) == 2:
            source, destination = event.target
            if down:
                applied = topology.block_edge(source, destination)
            else:
                applied = topology.unblock_edge(source, destination)
            if applied:
                self._notify_topology_changed()
            return applied
        node = self._resolve_node(event)
        if down:
            applied = topology.set_node_down(node)
            if applied:
                self._degrade_after_crash(node, self.world.engine.clock.now)
        else:
            applied = topology.set_node_up(node)
            if applied:
                self._notify_topology_changed()
        return applied

    def _check_target(self, event: FaultEvent) -> None:
        """Raise :class:`ConfigurationError` if ``event`` names a node or
        gateway the world's network lacks."""
        if event.kind in ("kill", "corruptagent"):
            return
        topology = self.world.topology
        if event.gateway_relative:
            count = len(topology.all_gateway_ids)
            if event.target[0] >= count:
                raise ConfigurationError(
                    f"fault {event.describe()} targets gateway #{event.target[0]} "
                    f"but the network has only {count} gateway(s)"
                )
            return
        n = topology.node_count
        for node in event.target:
            if node >= n:
                raise ConfigurationError(
                    f"fault {event.describe()} targets node {node} "
                    f"but the network has nodes 0..{n - 1}"
                )

    def _resolve_node(self, event: FaultEvent) -> NodeId:
        """Translate the event's target into a concrete node id."""
        if not event.gateway_relative:
            return event.target[0]
        return self.world.topology.all_gateway_ids[event.target[0]]

    def _degrade_after_crash(self, node: NodeId, now: Time) -> None:
        """Graceful degradation: scrub every substrate the node touched."""
        world = self.world
        tables = getattr(world, "tables", None)
        if tables is not None:
            tables.invalidate_node(node)
        field = getattr(world, "field", None)
        if field is not None:
            field.clear_board(node)
        pheromone = getattr(world, "pheromone", None)
        if pheromone is not None:
            pheromone.clear_node(node)
        self._apply_agent_policy(node, now)
        self._notify_topology_changed()

    def _apply_agent_policy(self, node: NodeId, now: Time) -> None:
        policy = self.plan.agent_policy
        if policy == "freeze":
            return
        stranded = [
            agent
            for agent in self.world.agents
            if agent.location == node and agent.agent_id not in self._dead
        ]
        if not stranded:
            return
        if policy == "die":
            self._dead.update(agent.agent_id for agent in stranded)
            return
        # respawn: restart each stranded agent fresh on a random live node.
        down = self.world.topology.down_ids
        havens = [n for n in self.world.topology.node_ids if n not in down]
        if not havens:
            self._dead.update(agent.agent_id for agent in stranded)
            return
        live_gateways = set(self.world.topology.gateway_ids)
        for agent in stranded:
            start = self._rng.choice(havens)
            agent.reset_for_respawn(start, now)
            # A routing agent landing on a live gateway seeds a zero-hop
            # track immediately, exactly like initial placement does.
            if hasattr(agent, "tracks") and start in live_gateways:
                agent.stay(now, here_is_gateway=True)

    def _notify_topology_changed(self) -> None:
        handler = getattr(self.world, "fault_topology_changed", None)
        if handler is not None:
            handler()

    def resilience_counts(self) -> Tuple[int, int]:
        """``(total, alive)`` agent counts for the resilience report."""
        total = len(self.world.agents)
        return total, total - len(self._dead)

    def describe(self) -> Optional[str]:
        """The installed plan's spec form (debugging aid)."""
        return self.plan.describe() if self.plan else None
