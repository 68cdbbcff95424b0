"""Wireless network substrate.

Models the physical layer of the paper's two scenarios: nodes placed in a
2D arena, per-node radio ranges (possibly heterogeneous and shrinking with
battery drain), node mobility, and the resulting *directed* link topology
recomputed as nodes move.
"""

from repro.net.battery import Battery, ExponentialDrain, LinearDrain, NoDrain
from repro.net.channel import (
    BatteryLoss,
    ChannelConfig,
    ChannelModel,
    CompositeLoss,
    DistanceLoss,
    FixedLoss,
)
from repro.net.generator import (
    GeneratorConfig,
    MANET_PRESET,
    MAPPING_PRESET,
    NetworkGenerator,
    generate_manet_network,
    generate_mapping_network,
)
from repro.net.geometry import Arena, Point
from repro.net.health import HealthConfig, HealthMonitor, HealthReport
from repro.net.mobility import MobilityModel, RandomVelocity, RandomWaypoint, Stationary
from repro.net.node import Node
from repro.net.radio import (
    BatteryCoupledRange,
    FixedRange,
    HeterogeneousRange,
    RadioModel,
)
from repro.net.topology import Topology

__all__ = [
    "Point",
    "Arena",
    "Battery",
    "NoDrain",
    "LinearDrain",
    "ExponentialDrain",
    "RadioModel",
    "FixedRange",
    "HeterogeneousRange",
    "BatteryCoupledRange",
    "MobilityModel",
    "Stationary",
    "RandomVelocity",
    "RandomWaypoint",
    "Node",
    "Topology",
    "ChannelConfig",
    "ChannelModel",
    "FixedLoss",
    "DistanceLoss",
    "BatteryLoss",
    "CompositeLoss",
    "HealthConfig",
    "HealthMonitor",
    "HealthReport",
    "NetworkGenerator",
    "GeneratorConfig",
    "MAPPING_PRESET",
    "MANET_PRESET",
    "generate_mapping_network",
    "generate_manet_network",
]
