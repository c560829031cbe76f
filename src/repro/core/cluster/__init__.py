"""Cluster resilience layer: fleet, placement, health, brownout.

The package simulates a multi-host confidential-FaaS fleet on one
virtual timeline: heterogeneous host profiles spread across failure
domains, a bin-pack/zone-spread placement scheduler, warm-pool VM
lifecycle with seeded autoscaling, probe-driven failure detection
with hedged failover, per-zone attestation collateral, and a
progressive brownout ladder under open-loop overload.  Entry point:
build a fleet with :func:`build_fleet`, run a sweep through
:class:`ClusterGateway`, read the :class:`ClusterReport`.
"""

from repro.core.cluster.gateway import ClusterGateway, ClusterReport
from repro.core.cluster.health import HealthMonitor
from repro.core.cluster.node import ClusterNode, NodeState
from repro.core.cluster.overload import BrownoutLevel, OverloadController
from repro.core.cluster.placement import PlacementScheduler
from repro.core.cluster.profiles import (
    DEFAULT_ZONES,
    GENERATIONS,
    PLATFORM_CYCLE,
    HostProfile,
    build_fleet,
)
from repro.core.cluster.traffic import (
    TenantMix,
    TrafficGenerator,
    TrafficSpec,
)

__all__ = [
    "BrownoutLevel",
    "ClusterGateway",
    "ClusterNode",
    "ClusterReport",
    "DEFAULT_ZONES",
    "GENERATIONS",
    "HealthMonitor",
    "HostProfile",
    "NodeState",
    "OverloadController",
    "PLATFORM_CYCLE",
    "PlacementScheduler",
    "TenantMix",
    "TrafficGenerator",
    "TrafficSpec",
    "build_fleet",
]
