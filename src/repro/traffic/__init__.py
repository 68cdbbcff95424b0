"""The data plane: payload workloads over agent-built routing state.

The paper's tables exist so "an average packet will use a multi-hop path
to reach one of those gateways" — this package moves that data.  It
layers a reliable DTN-style store-and-forward plane (bounded per-node
queues, custody transfer with per-hop ack and bounded exponential
backoff, TTL expiry, replication baselines) over the substrate the rest
of the repo already simulates, with exact payload-conservation
accounting the invariant checker verifies every step.
"""

from repro.traffic.generator import TRAFFIC_PROFILES, PayloadGenerator
from repro.traffic.payload import (
    ALIVE,
    DELIVERED,
    DROPPED,
    EXPIRED,
    LATENCY_BUCKETS,
    Payload,
    PayloadCopy,
    TrafficLedger,
)
from repro.traffic.plane import (
    TrafficConfig,
    TrafficPlane,
    TrafficReport,
)
from repro.traffic.queues import QUEUE_POLICIES, PayloadQueue
from repro.traffic.routers import (
    ROUTERS,
    EpidemicRouter,
    SprayAndWaitRouter,
    StoreAndForwardRouter,
    TrafficRouter,
    make_router,
)

__all__ = [
    "ALIVE",
    "DELIVERED",
    "DROPPED",
    "EXPIRED",
    "LATENCY_BUCKETS",
    "Payload",
    "PayloadCopy",
    "TrafficLedger",
    "TRAFFIC_PROFILES",
    "PayloadGenerator",
    "QUEUE_POLICIES",
    "PayloadQueue",
    "ROUTERS",
    "TrafficRouter",
    "StoreAndForwardRouter",
    "EpidemicRouter",
    "SprayAndWaitRouter",
    "make_router",
    "TrafficConfig",
    "TrafficPlane",
    "TrafficReport",
]
