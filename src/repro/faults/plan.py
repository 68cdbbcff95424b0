"""Fault plans: immutable, seeded schedules of failure events.

A :class:`FaultPlan` is data, not behaviour: a tuple of
:class:`FaultEvent` rows plus an agent-respawn policy.  Keeping it a
frozen, hashable value type means it can ride inside the (also frozen)
world configs, pickle across ``multiprocessing`` workers unchanged, and
key caches — which is what makes fault runs bit-identical between
serial and parallel sweeps.

Plans come from three places:

* the builder API — ``FaultPlan().crash(50, 3).recover(80, 3)``,
* the compact spec DSL — ``parse_fault_plan("crash@50:3;recover@80:3")``
  (what the CLI's ``--faults`` flag accepts),
* the churn generator — :meth:`FaultPlan.random_churn`, which derives a
  reproducible crash/recover schedule from a master seed via
  :func:`repro.rng.derive_seed`.

Spec grammar (events separated by ``;``)::

    kind@time:target[:amount]

    crash@50:3        node 3 crashes at step 50
    crash@50:gw0      the first gateway crashes (gateway outage)
    recover@80:3      node 3 (or gw0) comes back
    blackout@40:2-7   directed link 2->7 goes dark
    restore@60:2-7    the link comes back
    shock@30:5:0.5    node 5 instantly loses 50% of its battery
    kill@25:a3        agent 3 is killed
    wipe@90:4         node 4's routing table is wiped
    corrupt@90:4      node 4's next hops are scrambled
    lossburst@30:5:0.6  node 5's outgoing transfers gain 60% extra loss
    lossclear@60:5    the loss burst on node 5 lifts
    grayfail@30:5:0.9   node 5 gray-fails: stays up but silently drops
                        90% of inbound transfers
    grayclear@60:5    the gray failure on node 5 heals
    flap@30:5:0.5:8:3   node 5 flaps: 3 up/down cycles of period 8
                        starting at step 30, down 50% of each cycle
    flap@30:2-7:0.5:8:3 the directed link 2->7 flaps the same way
    corruptagent@25:a3  agent 3 turns adversarial: the routing
                        knowledge it writes from now on is forged

    policy=respawn    (anywhere in the spec) respawn policy for agents
                      whose node crashes: die | respawn | freeze
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Tuple

from repro.errors import ConfigurationError
from repro.rng import derive_seed
from repro.types import Time

__all__ = [
    "FAULT_KINDS",
    "AGENT_POLICIES",
    "FaultEvent",
    "FaultPlan",
    "parse_fault_plan",
    "AdversarySpec",
]

#: Every supported fault action.
FAULT_KINDS = frozenset(
    {
        "crash",
        "recover",
        "blackout",
        "restore",
        "shock",
        "kill",
        "wipe",
        "corrupt",
        "lossburst",
        "lossclear",
        "grayfail",
        "grayclear",
        "flap",
        "corruptagent",
    }
)

#: What happens to agents standing on a node when it crashes:
#: ``die`` — gone for the rest of the run; ``respawn`` — restart fresh
#: on a random live node; ``freeze`` — survive in place, suspended until
#: the node recovers.
AGENT_POLICIES = ("die", "respawn", "freeze")

#: How :meth:`FaultPlan.random_adversary` flaps a victim (up/down period
#: in steps, cycle count, down share of each cycle) and what happens to
#: agents on a node it takes down.
ADVERSARY_FLAP_PERIOD = 8
ADVERSARY_FLAP_CYCLES = 3
ADVERSARY_FLAP_DUTY = 0.5
ADVERSARY_AGENT_POLICY = "freeze"

#: Kinds whose target is a single node id (or ``gwK``).
_NODE_KINDS = frozenset(
    {
        "crash",
        "recover",
        "shock",
        "wipe",
        "corrupt",
        "lossburst",
        "lossclear",
        "grayfail",
        "grayclear",
    }
)
#: Kinds that carry a ``(0, 1]`` amount in their spec form.
_AMOUNT_KINDS = frozenset({"shock", "lossburst", "grayfail"})
#: Kinds whose target is a directed edge ``u-v``.
_EDGE_KINDS = frozenset({"blackout", "restore"})
#: Kinds whose target is an agent id ``aN``.
_AGENT_KINDS = frozenset({"kill", "corruptagent"})


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled failure: what happens, when, and to whom.

    ``target`` is a tuple of ids — one node id for node faults, an
    ``(source, destination)`` pair for link faults, one agent id for
    kills and agent corruption.  ``gateway_relative`` flips the node id
    to an index into the topology's gateway list, resolved at injection
    time, so a plan can say "the first gateway" without knowing the
    generated network.

    ``flap`` events additionally carry a duty cycle: ``amount`` is the
    fraction of each ``period``-step cycle spent down, and ``cycles``
    is how many up/down oscillations run before the target settles up.
    """

    time: Time
    kind: str
    target: Tuple[int, ...]
    amount: float = 0.0
    gateway_relative: bool = False
    period: int = 0
    cycles: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of {sorted(FAULT_KINDS)}"
            )
        if self.time < 1:
            raise ConfigurationError(
                f"fault time must be >= 1 (the engine schedules ahead), got {self.time}"
            )
        if self.kind == "flap":
            if len(self.target) not in (1, 2):
                raise ConfigurationError(
                    f"flap takes a node or a 'u-v' edge target, got {self.target!r}"
                )
            if not 0.0 < self.amount <= 1.0:
                raise ConfigurationError(
                    f"flap duty must be in (0, 1], got {self.amount}"
                )
            if self.period < 2:
                raise ConfigurationError(
                    f"flap period must be >= 2 steps, got {self.period}"
                )
            if self.cycles < 1:
                raise ConfigurationError(
                    f"flap cycles must be >= 1, got {self.cycles}"
                )
        else:
            if self.period or self.cycles:
                raise ConfigurationError(
                    f"period/cycles only apply to flap, not {self.kind!r}"
                )
            expected = 2 if self.kind in _EDGE_KINDS else 1
            if len(self.target) != expected:
                raise ConfigurationError(
                    f"{self.kind} takes {expected} target id(s), got {self.target!r}"
                )
        if any(t < 0 for t in self.target):
            raise ConfigurationError(f"target ids must be >= 0, got {self.target!r}")
        if self.gateway_relative and not (
            self.kind in _NODE_KINDS
            or (self.kind == "flap" and len(self.target) == 1)
        ):
            raise ConfigurationError(
                f"gateway-relative targets only apply to node faults, not {self.kind!r}"
            )
        if self.kind in _AMOUNT_KINDS and not 0.0 < self.amount <= 1.0:
            raise ConfigurationError(
                f"{self.kind} amount must be in (0, 1], got {self.amount}"
            )

    def describe(self) -> str:
        """Compact human-readable form (mirrors the spec DSL)."""
        if len(self.target) == 2:
            target = f"{self.target[0]}-{self.target[1]}"
        elif self.kind in _AGENT_KINDS:
            target = f"a{self.target[0]}"
        elif self.gateway_relative:
            target = f"gw{self.target[0]}"
        else:
            target = str(self.target[0])
        if self.kind == "flap":
            suffix = f":{self.amount:g}:{self.period}:{self.cycles}"
        elif self.kind in _AMOUNT_KINDS:
            suffix = f":{self.amount:g}"
        else:
            suffix = ""
        return f"{self.kind}@{self.time}:{target}{suffix}"


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of fault events plus degradation policy."""

    events: Tuple[FaultEvent, ...] = ()
    agent_policy: str = "die"

    def __post_init__(self) -> None:
        if self.agent_policy not in AGENT_POLICIES:
            raise ConfigurationError(
                f"agent_policy must be one of {AGENT_POLICIES}, got {self.agent_policy!r}"
            )
        ordered = tuple(sorted(self.events, key=lambda e: e.time))
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    @property
    def last_fault_time(self) -> Optional[Time]:
        """Time of the final scheduled fault (``None`` for an empty plan)."""
        return self.events[-1].time if self.events else None

    @property
    def first_fault_time(self) -> Optional[Time]:
        """Time of the earliest scheduled fault (``None`` when empty)."""
        return self.events[0].time if self.events else None

    # -- builder API ----------------------------------------------------

    def adding(self, *events: FaultEvent) -> "FaultPlan":
        """A new plan with ``events`` merged in (time-sorted)."""
        return replace(self, events=self.events + tuple(events))

    def with_policy(self, agent_policy: str) -> "FaultPlan":
        """A new plan with a different agent-respawn policy."""
        return replace(self, agent_policy=agent_policy)

    def crash(self, time: Time, node: int, gateway: bool = False) -> "FaultPlan":
        """Schedule a node (or ``gateway``-indexed) crash."""
        return self.adding(
            FaultEvent(time, "crash", (node,), gateway_relative=gateway)
        )

    def recover(self, time: Time, node: int, gateway: bool = False) -> "FaultPlan":
        """Schedule a crashed node's recovery."""
        return self.adding(
            FaultEvent(time, "recover", (node,), gateway_relative=gateway)
        )

    def gateway_outage(self, start: Time, end: Time, index: int = 0) -> "FaultPlan":
        """Crash the ``index``-th gateway at ``start``, recover at ``end``."""
        if end <= start:
            raise ConfigurationError(
                f"outage must end after it starts, got {start}..{end}"
            )
        return self.crash(start, index, gateway=True).recover(end, index, gateway=True)

    def blackout(self, time: Time, source: int, destination: int) -> "FaultPlan":
        """Schedule a directed-link blackout."""
        return self.adding(FaultEvent(time, "blackout", (source, destination)))

    def restore(self, time: Time, source: int, destination: int) -> "FaultPlan":
        """Schedule a blacked-out link's restoration."""
        return self.adding(FaultEvent(time, "restore", (source, destination)))

    def link_flap(
        self, source: int, destination: int, times: Iterable[Time], downtime: int = 1
    ) -> "FaultPlan":
        """Blackout/restore the link at each of ``times`` (a flapping link)."""
        if downtime < 1:
            raise ConfigurationError(f"downtime must be >= 1, got {downtime}")
        plan = self
        for time in times:
            plan = plan.blackout(time, source, destination).restore(
                time + downtime, source, destination
            )
        return plan

    def battery_shock(self, time: Time, node: int, amount: float) -> "FaultPlan":
        """Instantly drain ``amount`` (fraction of full) from a battery."""
        return self.adding(FaultEvent(time, "shock", (node,), amount=amount))

    def kill_agent(self, time: Time, agent: int) -> "FaultPlan":
        """Kill one agent outright."""
        return self.adding(FaultEvent(time, "kill", (agent,)))

    def wipe_table(self, time: Time, node: int) -> "FaultPlan":
        """Wipe a node's routing table."""
        return self.adding(FaultEvent(time, "wipe", (node,)))

    def corrupt_table(self, time: Time, node: int) -> "FaultPlan":
        """Scramble a node's routing-table next hops."""
        return self.adding(FaultEvent(time, "corrupt", (node,)))

    def loss_burst(
        self, time: Time, node: int, amount: float, gateway: bool = False
    ) -> "FaultPlan":
        """Make every transfer out of a node extra-lossy (fraction lost)."""
        return self.adding(
            FaultEvent(
                time, "lossburst", (node,), amount=amount, gateway_relative=gateway
            )
        )

    def loss_clear(self, time: Time, node: int, gateway: bool = False) -> "FaultPlan":
        """Lift a node's loss burst."""
        return self.adding(
            FaultEvent(time, "lossclear", (node,), gateway_relative=gateway)
        )

    def gray_failure(
        self, time: Time, node: int, rate: float, gateway: bool = False
    ) -> "FaultPlan":
        """Make a node silently drop inbound transfers at ``rate``."""
        return self.adding(
            FaultEvent(
                time, "grayfail", (node,), amount=rate, gateway_relative=gateway
            )
        )

    def gray_clear(self, time: Time, node: int, gateway: bool = False) -> "FaultPlan":
        """Heal a node's gray failure."""
        return self.adding(
            FaultEvent(time, "grayclear", (node,), gateway_relative=gateway)
        )

    def flap_node(
        self, time: Time, node: int, *, duty: float = 0.5, period: int = 8,
        cycles: int = 3, gateway: bool = False,
    ) -> "FaultPlan":
        """Oscillate a node up/down on a duty cycle, settling up."""
        return self.adding(
            FaultEvent(
                time, "flap", (node,), amount=duty, period=period,
                cycles=cycles, gateway_relative=gateway,
            )
        )

    def flap_edge(
        self, time: Time, source: int, destination: int, *,
        duty: float = 0.5, period: int = 8, cycles: int = 3,
    ) -> "FaultPlan":
        """Oscillate a directed link up/down on a duty cycle."""
        return self.adding(
            FaultEvent(
                time, "flap", (source, destination), amount=duty,
                period=period, cycles=cycles,
            )
        )

    def corrupt_agent(self, time: Time, agent: int) -> "FaultPlan":
        """Turn one agent adversarial: its table writes are forged."""
        return self.adding(FaultEvent(time, "corruptagent", (agent,)))

    # -- random churn ----------------------------------------------------

    @classmethod
    def random_churn(
        cls,
        master_seed: int,
        *,
        node_count: int,
        start: Time,
        end: Time,
        crashes: int,
        min_downtime: int = 10,
        max_downtime: int = 40,
        exclude: Tuple[int, ...] = (),
        agent_policy: str = "die",
        name: str = "churn",
    ) -> "FaultPlan":
        """A reproducible crash/recover schedule drawn from a seed.

        Picks ``crashes`` distinct victims (ids below ``node_count``,
        minus ``exclude``), each crashing at a uniform time in
        ``[start, end)`` and recovering after a uniform downtime in
        ``[min_downtime, max_downtime]``.  The stream is derived from
        ``(master_seed, name)`` via :func:`repro.rng.derive_seed`, so
        the same seed always yields the same churn and two differently
        named plans never share a stream.
        """
        if not 1 <= start < end:
            raise ConfigurationError(
                f"churn window must satisfy 1 <= start < end, got {start}..{end}"
            )
        if not 1 <= min_downtime <= max_downtime:
            raise ConfigurationError(
                f"downtime bounds must satisfy 1 <= min <= max, "
                f"got {min_downtime}..{max_downtime}"
            )
        candidates = [n for n in range(node_count) if n not in set(exclude)]
        if crashes > len(candidates):
            raise ConfigurationError(
                f"cannot crash {crashes} distinct nodes out of {len(candidates)}"
            )
        rng = random.Random(derive_seed(master_seed, f"faults:{name}"))
        victims = rng.sample(candidates, crashes)
        events = []
        for victim in victims:
            crash_at = rng.randrange(start, end)
            downtime = rng.randint(min_downtime, max_downtime)
            events.append(FaultEvent(crash_at, "crash", (victim,)))
            events.append(FaultEvent(crash_at + downtime, "recover", (victim,)))
        return cls(events=tuple(events), agent_policy=agent_policy)

    @classmethod
    def random_adversary(
        cls,
        master_seed: int,
        spec: "AdversarySpec",
        *,
        node_count: int,
        population: int,
        exclude: Tuple[int, ...] = (),
        name: str = "adversary",
    ) -> "FaultPlan":
        """A reproducible adversary schedule drawn from a seed.

        At step ``spec.start``, ``round(spec.gray_fraction *
        len(candidates))`` distinct non-excluded nodes gray-fail at
        ``spec.gray_rate`` for the rest of the run, ``spec.corrupt_agents``
        distinct agents (ids below ``population``) turn adversarial, and
        ``spec.flap_nodes`` further distinct nodes begin flapping
        (:data:`ADVERSARY_FLAP_DUTY` down of every
        :data:`ADVERSARY_FLAP_PERIOD` steps, :data:`ADVERSARY_FLAP_CYCLES`
        times).  The stream is derived from ``(master_seed, name)`` exactly
        like :meth:`random_churn`, so the same seed always builds the same
        adversary and defended/undefended variants face identical attacks.
        """
        if spec.corrupt_agents > population:
            raise ConfigurationError(
                f"cannot corrupt {spec.corrupt_agents} agents out of {population}"
            )
        candidates = [n for n in range(node_count) if n not in set(exclude)]
        gray_count = int(round(spec.gray_fraction * len(candidates)))
        if gray_count + spec.flap_nodes > len(candidates):
            raise ConfigurationError(
                f"adversary needs {gray_count + spec.flap_nodes} distinct victims "
                f"but only {len(candidates)} nodes are eligible"
            )
        rng = random.Random(derive_seed(master_seed, f"faults:{name}"))
        victims = rng.sample(candidates, gray_count + spec.flap_nodes)
        events = []
        for victim in victims[:gray_count]:
            events.append(
                FaultEvent(spec.start, "grayfail", (victim,), amount=spec.gray_rate)
            )
        for victim in victims[gray_count:]:
            events.append(
                FaultEvent(
                    spec.start, "flap", (victim,), amount=ADVERSARY_FLAP_DUTY,
                    period=ADVERSARY_FLAP_PERIOD, cycles=ADVERSARY_FLAP_CYCLES,
                )
            )
        if spec.corrupt_agents:
            for agent_id in rng.sample(range(population), spec.corrupt_agents):
                events.append(FaultEvent(spec.start, "corruptagent", (agent_id,)))
        return cls(events=tuple(events), agent_policy=ADVERSARY_AGENT_POLICY)

    def describe(self) -> str:
        """The plan in spec-DSL form (parseable back with one policy)."""
        parts = [f"policy={self.agent_policy}"]
        parts.extend(event.describe() for event in self.events)
        return ";".join(parts)


def _parse_target(kind: str, text: str) -> Tuple[Tuple[int, ...], bool]:
    """Decode a spec target: ``N``, ``gwK``, ``aN``, or ``U-V``."""
    if kind in _EDGE_KINDS or (kind == "flap" and "-" in text):
        pieces = text.split("-")
        if len(pieces) != 2:
            raise ConfigurationError(
                f"{kind} target must be 'source-destination', got {text!r}"
            )
        return (int(pieces[0]), int(pieces[1])), False
    if kind in _AGENT_KINDS:
        if not text.startswith("a"):
            raise ConfigurationError(
                f"{kind} target must be 'a<agent-id>', got {text!r}"
            )
        return (int(text[1:]),), False
    if text.startswith("gw"):
        return (int(text[2:]),), True
    return (int(text),), False


def parse_fault_plan(spec: str) -> FaultPlan:
    """Parse the compact ``--faults`` spec DSL into a :class:`FaultPlan`.

    See the module docstring for the grammar.  Raises
    :class:`~repro.errors.ConfigurationError` on any malformed segment.
    """
    events = []
    policy = "die"
    for raw_segment in spec.split(";"):
        segment = raw_segment.strip()
        if not segment:
            continue
        if segment.startswith("policy="):
            policy = segment[len("policy="):].strip()
            continue
        head, _, rest = segment.partition("@")
        kind = head.strip()
        if not rest:
            raise ConfigurationError(
                f"malformed fault {segment!r}; expected 'kind@time:target'"
            )
        pieces = rest.split(":")
        if len(pieces) < 2:
            raise ConfigurationError(
                f"malformed fault {segment!r}; expected 'kind@time:target'"
            )
        try:
            time = int(pieces[0])
            target, gateway_relative = _parse_target(kind, pieces[1])
            amount = float(pieces[2]) if len(pieces) > 2 else 0.0
            period = int(pieces[3]) if len(pieces) > 3 else 0
            cycles = int(pieces[4]) if len(pieces) > 4 else 0
        except ValueError as error:
            raise ConfigurationError(
                f"malformed fault {segment!r}: {error}"
            ) from None
        events.append(
            FaultEvent(
                time=time,
                kind=kind,
                target=target,
                amount=amount,
                gateway_relative=gateway_relative,
                period=period,
                cycles=cycles,
            )
        )
    return FaultPlan(events=tuple(events), agent_policy=policy)


@dataclass(frozen=True)
class AdversarySpec:
    """The CLI's ``--adversary`` knobs, as a frozen value type.

    Materialised into a concrete :class:`FaultPlan` per run via
    :meth:`FaultPlan.random_adversary` once the network dimensions are
    known — the spec itself stays network-agnostic so it can ride in
    run manifests and sweep checkpoints unchanged.
    """

    gray_fraction: float = 0.0
    gray_rate: float = 0.9
    corrupt_agents: int = 0
    flap_nodes: int = 0
    start: Time = 10

    def __post_init__(self) -> None:
        if not 0.0 <= self.gray_fraction <= 1.0:
            raise ConfigurationError(
                f"gray fraction must be in [0, 1], got {self.gray_fraction}"
            )
        if not 0.0 < self.gray_rate <= 1.0:
            raise ConfigurationError(
                f"gray rate must be in (0, 1], got {self.gray_rate}"
            )
        if self.corrupt_agents < 0:
            raise ConfigurationError(
                f"corrupt agent count must be >= 0, got {self.corrupt_agents}"
            )
        if self.flap_nodes < 0:
            raise ConfigurationError(
                f"flap node count must be >= 0, got {self.flap_nodes}"
            )
        if self.start < 1:
            raise ConfigurationError(
                f"adversary start must be >= 1, got {self.start}"
            )
