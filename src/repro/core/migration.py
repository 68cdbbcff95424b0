"""Reliable agent migration over a lossy channel.

An agent *is* its payload: when a hop across a wireless link fails, the
agent never left its node.  This module wraps the raw
:class:`~repro.net.channel.ChannelModel` verdicts in the bounded
retry/backoff protocol both worlds share:

* a failed hop leaves the agent in place and schedules a retry after an
  exponentially growing wait (``backoff_base * 2**(failures-1)`` steps,
  clamped to ``backoff_cap``),
* while waiting, the agent takes no movement decision (the radio is the
  bottleneck, not the policy),
* once a retry is due the agent re-attempts the *same* target — unless
  the link vanished meanwhile, in which case it re-plans immediately,
* after ``hop_retries`` failed retries the target is abandoned: the
  agent re-plans via its normal policy next step, and the world treats
  the abandonment as link-quality evidence (routing worlds drop table
  entries whose next hop is the unreachable neighbour).

State lives in a per-agent :class:`MigrationState`; the protocol logic
lives in :class:`ReliableMigration` so the mapping and routing worlds
cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Optional, Tuple

from repro.net.channel import ChannelModel
from repro.types import NodeId, Time

__all__ = [
    "DELIVERED",
    "RETRY",
    "ABANDONED",
    "MigrationState",
    "ReliableMigration",
]

#: Hop outcomes returned by :meth:`ReliableMigration.attempt_hop`.
DELIVERED = "delivered"
RETRY = "retry"
ABANDONED = "abandoned"


@dataclass
class MigrationState:
    """Per-agent retry/backoff bookkeeping for the current target."""

    #: the neighbour the agent is trying to reach; ``None`` = no pending hop.
    target: Optional[NodeId] = None
    #: consecutive failed attempts toward ``target``.
    failures: int = 0
    #: earliest step at which the next retry may fire.
    retry_at: Time = 0

    def reset(self) -> None:
        """Forget the pending hop (delivery, abandonment, or respawn)."""
        self.target = None
        self.failures = 0
        self.retry_at = 0


class ReliableMigration:
    """The shared retry/backoff protocol driving agent hops."""

    def __init__(self, channel: ChannelModel) -> None:
        self.channel = channel

    def resolve_intent(
        self, agent, now: Time, out_neighbors: Container[NodeId]
    ) -> Tuple[bool, Optional[NodeId]]:
        """What this agent does this step: ``(needs_decision, forced_target)``.

        * backoff still running → ``(False, None)``: the agent waits,
        * retry due and the target is still a live out-neighbour →
          ``(False, target)``: re-attempt without consulting the policy,
        * retry due but the link is gone → state cleared, ``(True, None)``:
          re-plan now rather than burn retries on a dead link,
        * no pending hop → ``(True, None)``: the normal decision phase.
        """
        state: MigrationState = agent.migration
        if state.target is None:
            return True, None
        if now < state.retry_at:
            return False, None
        if state.target in out_neighbors:
            return False, state.target
        state.reset()
        return True, None

    def attempt_hop(self, agent, target: NodeId, now: Time) -> str:
        """Try to deliver ``agent`` to ``target``; returns the outcome.

        Updates the agent's migration state and overhead counters; the
        caller commits the move only on :data:`DELIVERED` and converts
        :data:`ABANDONED` into link-quality evidence.
        """
        state: MigrationState = agent.migration
        config = self.channel.config
        agent.overhead.hops_attempted += 1
        if self.channel.attempt(agent.location, target, now, f"hop:{agent.agent_id}"):
            state.reset()
            return DELIVERED
        agent.overhead.hops_lost += 1
        if state.target != target:
            state.target = target
            state.failures = 1
        else:
            state.failures += 1
        if state.failures > config.hop_retries:
            state.reset()
            agent.overhead.hops_abandoned += 1
            return ABANDONED
        agent.overhead.hop_retries += 1
        state.retry_at = now + min(
            config.backoff_cap, config.backoff_base * 2 ** (state.failures - 1)
        )
        return RETRY
