"""One simulated cluster host: capacity, health, warm-pool lifecycle.

A node's VM lifecycle mirrors what Knative/Kata-style confidential
FaaS pays for in practice: a *cold boot* provisions and (for secure
requests) attests a fresh CVM, while a *warm start* reuses a paused
VM kept in the node's warm pool.  The pool is bounded (``warm_cap``)
and the cap breathes with demand via the gateway's seeded autoscaler,
so cold-start amortization — the headline cluster metric — is an
emergent property of traffic, not a constant.

Health is tracked as the classic three-state probe machine
(``HEALTHY → SUSPECT → DEAD``) driven by
:class:`repro.core.cluster.health.HealthMonitor`; the node itself
only stores the state and the probe-miss counter.
"""

from __future__ import annotations

import enum

from repro.core.cluster.profiles import HostProfile


class NodeState(enum.Enum):
    """Gateway-visible health of a node (what placement consults)."""

    HEALTHY = "healthy"
    SUSPECT = "suspect"     # missed probes; no new placements, hedge
    DEAD = "dead"           # declared lost; in-flight work failed over


class ClusterNode:
    """Mutable per-host simulation state."""

    __slots__ = (
        "profile", "state", "free_mib", "active", "secure_active",
        "warm", "warm_total", "warm_cap", "missed_probes",
        "crashed_at_ns", "degraded_window",
        "busy_ns", "served", "cold_boots", "warm_starts",
        "completions_since_tick",
    )

    def __init__(self, profile: HostProfile) -> None:
        self.profile = profile
        self.state = NodeState.HEALTHY
        self.free_mib = profile.memory_mib
        self.active = 0             # in-flight attempts (bounded by cores)
        self.secure_active = 0      # secure subset (zone-spread input)
        self.warm: dict[str, int] = {}   # function -> warm VMs pooled
        self.warm_total = 0
        self.warm_cap = profile.cores    # autoscaler moves this
        self.missed_probes = 0
        #: virtual time the host dies, from the fault schedule (None =
        #: never); the gateway only *learns* of it via probe timeouts
        self.crashed_at_ns: float | None = None
        #: (start_ns, end_ns) slowdown window, or None
        self.degraded_window: tuple[float, float] | None = None
        self.busy_ns = 0.0          # total attempt time burned here
        self.served = 0
        self.cold_boots = 0
        self.warm_starts = 0
        #: completions since the last autoscale tick (demand signal)
        self.completions_since_tick = 0

    # -- capacity ------------------------------------------------------

    def alive_at(self, now_ns: float) -> bool:
        """Whether the host hardware is up at ``now_ns`` (ground truth,
        distinct from the probed ``state`` the gateway acts on)."""
        return self.crashed_at_ns is None or now_ns < self.crashed_at_ns

    def can_fit(self, memory_mib: int) -> bool:
        """Room for one more request of ``memory_mib`` guest memory."""
        return (self.active < self.profile.cores
                and self.free_mib >= memory_mib)

    def slowdown_at(self, now_ns: float, slow_factor: float) -> float:
        """The degraded-host multiplier in effect at ``now_ns``."""
        window = self.degraded_window
        if window is not None and window[0] <= now_ns < window[1]:
            return slow_factor
        return 1.0

    # -- VM lifecycle --------------------------------------------------

    def acquire(self, function: str, memory_mib: int,
                secure: bool) -> bool:
        """Reserve capacity for one attempt; True means *cold* boot."""
        self.free_mib -= memory_mib
        self.active += 1
        if secure:
            self.secure_active += 1
        pooled = self.warm.get(function, 0)
        if pooled > 0:
            self.warm[function] = pooled - 1
            self.warm_total -= 1
            self.warm_starts += 1
            return False
        self.cold_boots += 1
        return True

    def release(self, function: str, memory_mib: int, secure: bool,
                stash: bool = True) -> None:
        """Return an attempt's capacity; maybe pool the VM warm."""
        self.free_mib += memory_mib
        self.active -= 1
        if secure:
            self.secure_active -= 1
        self.completions_since_tick += 1
        if stash and self.warm_total < self.warm_cap:
            self.warm[function] = self.warm.get(function, 0) + 1
            self.warm_total += 1

    def prewarm(self, function: str) -> bool:
        """Seed one warm VM at start of day (autoscaler bootstrap)."""
        if self.warm_total >= self.warm_cap:
            return False
        self.warm[function] = self.warm.get(function, 0) + 1
        self.warm_total += 1
        return True

    def __repr__(self) -> str:
        return (f"ClusterNode({self.profile.name}, {self.state.value}, "
                f"active={self.active}, warm={self.warm_total})")
