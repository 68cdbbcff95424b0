"""Lossy-channel model: per-attempt success of agent transfers.

The paper's environment is "more realistic" than Minar's mainly through
heterogeneous directed links and battery-driven degradation (§II-A,
§III-A) — but the reproduction so far still assumed every agent hop and
every co-location exchange *succeeds*.  Real wireless transfers fail.
This module supplies the missing idealisation-breaker: a seeded,
deterministic :class:`ChannelModel` that decides, per attempt, whether a
migration or meeting payload gets through.

Loss policies are pluggable and composable:

* :class:`FixedLoss` — a constant per-attempt loss probability,
* :class:`DistanceLoss` — loss grows toward the edge of the *sender's*
  current radio range (a link that barely exists barely works),
* :class:`BatteryLoss` — a depleting sender gets flakier (composing
  naturally with :class:`~repro.net.radio.BatteryCoupledRange`, which
  shrinks the range the distance term is measured against),
* :class:`CompositeLoss` — independent failure modes combine as
  ``1 - prod(1 - p_i)``.

Determinism is *keyed*, not sequential: each attempt draws a uniform
value from ``hash(seed, step, key)`` instead of advancing a stateful
RNG.  Two consequences the rest of the system relies on:

* an attempt's outcome cannot depend on the order in which agents are
  iterated (meeting exchanges stay order-independent under loss), and
* a lossless channel (``p == 0`` everywhere) draws **nothing** — runs
  with a disabled channel and runs with ``loss=0`` are bit-identical,
  so every pre-existing seeded experiment is untouched.

Transient *loss bursts* (a node's links turning bad for a while) are
driven by the fault layer — see ``lossburst``/``lossclear`` in
:mod:`repro.faults.plan` — and stack multiplicatively on the policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Protocol, Sequence

from repro.errors import ConfigurationError
from repro.net.node import Node
from repro.net.topology import Topology
from repro.rng import derive_seed
from repro.types import NodeId, Time

__all__ = [
    "ChannelConfig",
    "LossPolicy",
    "FixedLoss",
    "DistanceLoss",
    "BatteryLoss",
    "CompositeLoss",
    "policy_from_config",
    "ChannelStats",
    "ChannelModel",
]

#: Denominator turning a 64-bit keyed hash into a uniform draw in [0, 1).
_DRAW_SPAN = float(2**64)

#: Attempt-key prefixes carrying data-plane payloads — the only traffic
#: a gray-failed node drops.  Agent migrations (``hop:``) and meeting
#: exchanges keep succeeding: that is what makes the failure *gray* —
#: the node looks perfectly healthy to the control plane, keeps relaying
#: agents and attracting routes, and silently swallows the payloads
#: those routes then send through it.
GRAY_KINDS = frozenset({"pay", "epi", "spr"})


@dataclass(frozen=True)
class ChannelConfig:
    """Loss-model and reliable-migration knobs for one world.

    Frozen and hashable so it can ride inside the (also frozen) world
    configs, pickle across ``multiprocessing`` workers, and key sweep
    checkpoints.  The three loss terms compose as independent failure
    modes; all-zero terms mean a lossless channel and the fast no-draw
    path.

    ``hop_retries``/``backoff_base`` parameterise the reliable-migration
    protocol built on top of the channel: a failed hop is retried up to
    ``hop_retries`` times, waiting ``backoff_base * 2**(failures-1)``
    simulation steps between attempts (clamped to ``backoff_cap``),
    before the agent abandons the target and re-plans via its normal
    policy.
    """

    #: constant per-attempt loss probability.
    loss: float = 0.0
    #: extra loss at the far edge of the sender's radio range.
    distance_factor: float = 0.0
    #: shape of the distance term (2.0 ~ inverse-square-ish falloff).
    distance_exponent: float = 2.0
    #: extra loss for a sender whose battery is empty.
    battery_factor: float = 0.0
    #: bounded retries before a failed hop is abandoned.
    hop_retries: int = 3
    #: first retry waits this many steps; each further retry doubles it.
    backoff_base: int = 1
    #: longest wait between retries; the exponential backoff never
    #: exceeds this many steps.  The default (64) is far above anything
    #: the default retry budget can reach, so existing behaviour is
    #: unchanged unless ``hop_retries`` is raised past it.
    backoff_cap: int = 64

    def __post_init__(self) -> None:
        for name in ("loss", "distance_factor", "battery_factor"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
        if self.distance_exponent <= 0:
            raise ConfigurationError(
                f"distance_exponent must be positive, got {self.distance_exponent}"
            )
        if self.hop_retries < 0:
            raise ConfigurationError(
                f"hop_retries must be >= 0, got {self.hop_retries}"
            )
        if self.backoff_base < 1:
            raise ConfigurationError(
                f"backoff_base must be >= 1, got {self.backoff_base}"
            )
        if self.backoff_cap < 1:
            raise ConfigurationError(
                f"backoff_cap must be >= 1, got {self.backoff_cap}"
            )

    @property
    def lossless(self) -> bool:
        """Whether this config can never lose an attempt (no bursts)."""
        return (
            self.loss == 0.0
            and self.distance_factor == 0.0
            and self.battery_factor == 0.0
        )


class LossPolicy(Protocol):
    """Strategy giving the loss probability of one transfer attempt."""

    def loss_probability(self, source: Node, destination: Node) -> float:
        """Probability in ``[0, 1]`` that ``source -> destination`` fails."""
        ...


class FixedLoss:
    """Every attempt fails with the same probability."""

    def __init__(self, probability: float) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ConfigurationError(
                f"loss probability must be in [0, 1], got {probability}"
            )
        self.probability = probability

    def loss_probability(self, source: Node, destination: Node) -> float:
        return self.probability


class DistanceLoss:
    """Loss proportional to how deep into the sender's range the hop is.

    ``p = factor * min(1, distance / range(source)) ** exponent`` — a
    target at the sender's feet is safe, one at the rim of the radio
    range fails with up to ``factor``.  A sender whose effective range
    collapsed to zero cannot deliver at all.
    """

    def __init__(self, factor: float, exponent: float = 2.0) -> None:
        if not 0.0 <= factor <= 1.0:
            raise ConfigurationError(f"factor must be in [0, 1], got {factor}")
        if exponent <= 0:
            raise ConfigurationError(f"exponent must be positive, got {exponent}")
        self.factor = factor
        self.exponent = exponent

    def loss_probability(self, source: Node, destination: Node) -> float:
        if source is destination:
            return 0.0
        radius = source.current_range()
        if radius <= 0.0:
            return 1.0
        ratio = min(1.0, source.position.distance_to(destination.position) / radius)
        return self.factor * ratio**self.exponent


class BatteryLoss:
    """A depleting sender gets flakier: ``p = factor * (1 - level)``."""

    def __init__(self, factor: float) -> None:
        if not 0.0 <= factor <= 1.0:
            raise ConfigurationError(f"factor must be in [0, 1], got {factor}")
        self.factor = factor

    def loss_probability(self, source: Node, destination: Node) -> float:
        return self.factor * (1.0 - source.battery.level)


class CompositeLoss:
    """Independent failure modes: ``p = 1 - prod(1 - p_i)``."""

    def __init__(self, policies: Sequence[LossPolicy]) -> None:
        self.policies = tuple(policies)

    def loss_probability(self, source: Node, destination: Node) -> float:
        survive = 1.0
        for policy in self.policies:
            survive *= 1.0 - policy.loss_probability(source, destination)
        return 1.0 - survive


def policy_from_config(config: ChannelConfig) -> LossPolicy:
    """Build the composite policy a :class:`ChannelConfig` describes."""
    terms = []
    if config.loss > 0.0:
        terms.append(FixedLoss(config.loss))
    if config.distance_factor > 0.0:
        terms.append(DistanceLoss(config.distance_factor, config.distance_exponent))
    if config.battery_factor > 0.0:
        terms.append(BatteryLoss(config.battery_factor))
    if not terms:
        return FixedLoss(0.0)
    if len(terms) == 1:
        return terms[0]
    return CompositeLoss(terms)


@dataclass
class ChannelStats:
    """Channel-level delivery accounting (diagnostics)."""

    attempts: int = 0
    losses: int = 0
    #: per-kind loss counts, keyed by the prefix of the attempt key.
    losses_by_kind: Dict[str, int] = field(default_factory=dict)

    @property
    def loss_rate(self) -> float:
        """Observed fraction of attempts lost."""
        return self.losses / self.attempts if self.attempts else 0.0


class ChannelModel:
    """Seeded, deterministic per-attempt transfer success for one world.

    Every decision draws from ``hash(seed, time, key)`` so outcomes are
    a pure function of the attempt's identity — independent of agent
    iteration order and identical between serial and pooled runs.  A
    channel whose effective probability is zero returns success without
    hashing at all.
    """

    def __init__(self, topology: Topology, config: ChannelConfig, seed: int) -> None:
        self.topology = topology
        self.config = config
        self._policy = policy_from_config(config)
        self._seed = seed
        self._bursts: Dict[NodeId, float] = {}
        self._gray: Dict[NodeId, float] = {}
        self.stats = ChannelStats()

    @property
    def hops_lossless(self) -> bool:
        """Whether no agent hop (or meeting payload) can be lost right now.

        True when the config is lossless and no loss burst is active.
        Gray failures do not count: they only drop the data-plane kinds
        in :data:`GRAY_KINDS`, never an agent migration or a meeting.
        """
        return self.config.lossless and not self._bursts

    # ------------------------------------------------------------------
    # Probability
    # ------------------------------------------------------------------

    def loss_probability(
        self, source: NodeId, destination: NodeId, kind: str = ""
    ) -> float:
        """Current loss probability of ``source -> destination``.

        ``kind`` is the attempt-key prefix (``hop``, ``meet``, ``pay``,
        …); gray failures only affect the data-plane kinds in
        :data:`GRAY_KINDS`, so callers that omit it get the control-plane
        probability.
        """
        probability = self._policy.loss_probability(
            self.topology.node(source), self.topology.node(destination)
        )
        burst = self._bursts.get(source)
        if burst is not None:
            probability = 1.0 - (1.0 - probability) * (1.0 - burst)
        if kind in GRAY_KINDS:
            gray = self._gray.get(destination)
            if gray is not None:
                # Gray failure: the *destination* receives the radio
                # frame but silently drops the payload, so the term
                # composes on the receiving side of the link.
                probability = 1.0 - (1.0 - probability) * (1.0 - gray)
        return min(1.0, max(0.0, probability))

    # ------------------------------------------------------------------
    # Attempts
    # ------------------------------------------------------------------

    def attempt(self, source: NodeId, destination: NodeId, now: Time, key: str) -> bool:
        """Whether one keyed transfer attempt succeeds.

        ``key`` names the attempt within the step (e.g. ``hop:7`` or
        ``meet:3``); the same ``(now, key)`` always yields the same
        outcome for a given seed and probability.
        """
        if self.config.lossless and not self._bursts and not self._gray:
            self.stats.attempts += 1
            return True
        kind = key.split(":", 1)[0]
        probability = self.loss_probability(source, destination, kind)
        self.stats.attempts += 1
        if probability <= 0.0:
            return True
        if probability < 1.0:
            draw = derive_seed(self._seed, f"{now}:{key}") / _DRAW_SPAN
            if draw >= probability:
                return True
        self.stats.losses += 1
        self.stats.losses_by_kind[kind] = self.stats.losses_by_kind.get(kind, 0) + 1
        return False

    # ------------------------------------------------------------------
    # Loss bursts (fault layer)
    # ------------------------------------------------------------------

    def set_burst(self, node: NodeId, probability: float) -> bool:
        """Make every link out of ``node`` extra-lossy until cleared.

        Returns whether the state changed (re-applying the same burst is
        a no-op, keeping fault plans idempotent).
        """
        if not 0.0 < probability <= 1.0:
            raise ConfigurationError(
                f"burst probability must be in (0, 1], got {probability}"
            )
        self.topology.node(node)  # validate the id
        if self._bursts.get(node) == probability:
            return False
        self._bursts[node] = probability
        return True

    def clear_burst(self, node: NodeId) -> bool:
        """Lift a loss burst; returns whether the state changed."""
        return self._bursts.pop(node, None) is not None

    # ------------------------------------------------------------------
    # Gray failures (fault layer)
    # ------------------------------------------------------------------

    def set_grayfail(self, node: NodeId, rate: float) -> bool:
        """Make ``node`` silently drop inbound *payloads* at ``rate``.

        Unlike a burst (a flaky *sender*), a gray failure is a receiver
        that stays up, keeps relaying agents, and loses the data-plane
        traffic it is handed (the kinds in :data:`GRAY_KINDS`) — the
        hardest failure mode for neighbors to diagnose, because every
        control-plane signal says the node is healthy.  Returns whether
        the state changed (idempotent like :meth:`set_burst`).
        """
        if not 0.0 < rate <= 1.0:
            raise ConfigurationError(
                f"grayfail rate must be in (0, 1], got {rate}"
            )
        self.topology.node(node)  # validate the id
        if self._gray.get(node) == rate:
            return False
        self._gray[node] = rate
        return True

    def clear_grayfail(self, node: NodeId) -> bool:
        """Heal a gray failure; returns whether the state changed."""
        return self._gray.pop(node, None) is not None

    @property
    def active_grayfails(self) -> Dict[NodeId, float]:
        """Currently gray-failing nodes and their drop rate (a copy)."""
        return dict(self._gray)
