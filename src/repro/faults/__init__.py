"""Deterministic fault injection.

The paper motivates its "more realistic environment" with exactly a
degradation story — battery-driven range shrinkage and link loss
(§II-B, §III-A) — but smooth decay is the gentlest failure mode a real
network sees.  This package injects the harsher ones, deterministically:
node crashes and recoveries, gateway outages, battery shocks, link
blackouts and flaps, agent kills, and routing-table wipes/corruption,
all scheduled through the simulation engine's event calendar so serial
and parallel runs stay bit-identical.

* :mod:`repro.faults.plan` — :class:`FaultPlan`: an immutable, seeded
  schedule of :class:`FaultEvent` actions, built programmatically, from
  a compact spec string (the CLI's ``--faults``), or from the random
  churn generator.
* :mod:`repro.faults.injector` — :class:`FaultInjector`: wires a plan
  into a world via ``TimeStepEngine.schedule_at`` and applies graceful
  degradation (dead radios, invalidated routes, cleared stigmergy,
  agent death/respawn policies).
* :mod:`repro.faults.metrics` — :class:`ResilienceTracker`: records
  connectivity/knowledge dips, time-to-reconverge, and agent survival.
"""

from repro.faults.injector import FaultInjector
from repro.faults.metrics import ResilienceReport, ResilienceTracker
from repro.faults.plan import (
    FAULT_KINDS,
    AdversarySpec,
    FaultEvent,
    FaultPlan,
    parse_fault_plan,
)

__all__ = [
    "FAULT_KINDS",
    "AdversarySpec",
    "FaultEvent",
    "FaultPlan",
    "parse_fault_plan",
    "FaultInjector",
    "ResilienceReport",
    "ResilienceTracker",
]
