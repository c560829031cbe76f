"""Collateral-tier building blocks and the zone-scale tier model.

Two collateral-cache models run in the tree, one per economics model:

- :class:`~repro.attest.service.TieredCollateral` — the verifier's
  ``per-host → cluster CDN → PCS origin`` cache of real,
  freshness-classified documents, charged on a live execution
  context through its ``fetch_*(ctx)`` provider methods.
- :class:`ZonedCollateral` — the cluster's zone-replicated tiers with
  fixed per-tier costs, origin outage windows and stale-serving.
  Host warmth is keyed by the caller's ``doc.host`` identity string,
  so the tier works for any orchestrator that can name its hosts.

:class:`TierStore` is the per-tier document store the verifier's cache
is built from.  Both models answer with the same tier labels:
``host`` / ``cdn`` / ``origin`` / ``stale`` / ``local``.
"""

from __future__ import annotations

from dataclasses import dataclass

#: virtual cost of resolving collateral per tier (ns) — the fixed
#: per-tier economics the cluster sweep attributes its collateral tax
#: with (the service-side TieredCollateral prices CDN hops on a live
#: NIC model instead)
HOST_TIER_NS = 200_000.0
CDN_TIER_NS = 1_200_000.0
ORIGIN_TIER_NS = 25_000_000.0

#: platforms with networked collateral; others (CCA's FVP setup) have
#: nothing to fetch and resolve as a free ``local`` hit
NETWORKED_PLATFORMS = ("tdx", "sev-snp")


@dataclass(frozen=True)
class CollateralDoc:
    """What a caller wants resolved, and on whose behalf.

    ``name`` selects the document; the zone-scale tiers price the
    whole ``"bundle"`` as one unit.  ``host`` and ``zone`` identify
    the requester — they key host-tier warmth and zone-replica
    selection; an empty ``host`` means "no host tier for this caller".
    """

    name: str = "bundle"
    platform: str = "tdx"
    host: str = ""
    zone: str = ""


@dataclass(frozen=True)
class TierHit:
    """One resolved fetch: the answering tier label and its price.

    ``tier`` is one of the standard labels (``host`` / ``cdn`` /
    ``origin`` / ``stale`` / ``local``).
    """

    tier: str
    cost_ns: float


class TierStore:
    """One cache tier: endpoint → (document, stored-at virtual ns)."""

    __slots__ = ("name", "entries")

    def __init__(self, name: str) -> None:
        self.name = name
        self.entries: dict[str, tuple[object, float]] = {}

    def get(self, endpoint: str) -> "tuple[object, float] | None":
        return self.entries.get(endpoint)

    def put(self, endpoint: str, document: object, now_ns: float) -> None:
        self.entries[endpoint] = (document, now_ns)

    def evict(self, endpoint: str) -> None:
        self.entries.pop(endpoint, None)

    def __len__(self) -> int:
        return len(self.entries)


class ZonedCollateral:
    """Zone-replicated collateral caches plus an origin with outages.

    The zone-scale economics from PR 9: every zone runs its own CDN
    replica, each host keeps a host-side cache (keyed by the caller's
    ``doc.host`` identity), and the origin sits across the WAN.  A
    fetch resolves through the cheapest warm tier:

    - ``host``   — cached for the requesting host: one IPC hop;
    - ``cdn``    — the zone replica is warm: a LAN hop, and the fetch
      warms the host tier on the way through;
    - ``origin`` — cold everywhere: the WAN round-trip, warming both
      the zone CDN and the host;
    - ``stale``  — the origin is blacked out (a ``collateral-outage``
      window in :attr:`outages`) but the zone replica holds a copy it
      cannot refresh: serve it stale, attributed to the ``stale``
      pseudo-tier at the CDN price;
    - a blackout with a cold CDN returns ``None`` — the caller
      re-places in another zone (or degrades with a record).

    Costs are fixed per tier so a sweep's collateral tax is exactly
    attributable to its hit pattern.  Every outcome is counted in
    :attr:`hits` under one of :attr:`HIT_KEYS` (``outage_failures``
    counts the fetches that returned ``None``).
    """

    #: the counter keys, one per tier label plus the failed fetches
    HIT_KEYS = ("host", "cdn", "origin", "stale", "outage_failures",
                "local")

    def __init__(self) -> None:
        #: tier label -> resolutions answered by that tier
        self.hits: dict[str, int] = {key: 0 for key in self.HIT_KEYS}
        #: zone -> (start_ns, end_ns) origin blackout window
        self.outages: dict[str, tuple[float, float]] = {}
        #: (zone, platform) -> True once a fetch warmed the replica
        self.cdn_warm: dict[tuple[str, str], bool] = {}
        #: (host, platform) -> True once a fetch warmed the host cache
        self.host_warm: dict[tuple[str, str], bool] = {}

    def origin_blacked_out(self, zone: str, now_ns: float) -> bool:
        window = self.outages.get(zone)
        return window is not None and window[0] <= now_ns < window[1]

    def fetch(self, doc: CollateralDoc, now_ns: float) -> TierHit | None:
        """Resolve ``doc`` through the cheapest warm tier, or ``None``."""
        if doc.platform not in NETWORKED_PLATFORMS:
            self.hits["local"] += 1
            return TierHit(tier="local", cost_ns=0.0)
        if doc.host and self.host_warm.get((doc.host, doc.platform)):
            self.hits["host"] += 1
            return TierHit(tier="host", cost_ns=HOST_TIER_NS)
        key = (doc.zone, doc.platform)
        if self.cdn_warm.get(key):
            if self.origin_blacked_out(doc.zone, now_ns):
                # the replica holds a copy it cannot refresh: serve it
                # stale — marked, never silently
                self.hits["stale"] += 1
                tier = "stale"
            else:
                self.hits["cdn"] += 1
                tier = "cdn"
            if doc.host:
                self.host_warm[(doc.host, doc.platform)] = True
            return TierHit(tier=tier, cost_ns=CDN_TIER_NS)
        if self.origin_blacked_out(doc.zone, now_ns):
            self.hits["outage_failures"] += 1
            return None
        self.hits["origin"] += 1
        self.cdn_warm[key] = True
        if doc.host:
            self.host_warm[(doc.host, doc.platform)] = True
        return TierHit(tier="origin", cost_ns=ORIGIN_TIER_NS)
