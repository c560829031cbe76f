"""The zone-scale collateral tiers (:class:`ZonedCollateral`).

The cluster resolves secure cold-boot collateral through
:class:`~repro.attest.tiers.ZonedCollateral`: host cache → zone CDN
replica → WAN origin, with stale-serving from a warm replica during an
origin outage.  Its six ``hits`` keys are what ``ClusterReport``
publishes as ``collateral``.  The verifier's document cache,
:class:`~repro.attest.service.TieredCollateral`, is covered in
``test_service.py``.
"""

from repro.attest.tiers import (
    CDN_TIER_NS,
    HOST_TIER_NS,
    ORIGIN_TIER_NS,
    CollateralDoc,
    ZonedCollateral,
)
from repro.core.cluster import build_fleet


def doc(host="h1", zone="z1", platform="tdx"):
    return CollateralDoc(platform=platform, host=host, zone=zone)


class TestProtocol:
    """The counter keys every sweep's ``ClusterReport.collateral`` holds."""

    def test_standard_hit_keys(self):
        tier = ZonedCollateral()
        assert tuple(tier.hits) == ZonedCollateral.HIT_KEYS
        assert all(count == 0 for count in tier.hits.values())


class TestZonedCollateral:
    def test_cold_fetch_warms_cdn_then_host(self):
        tier = ZonedCollateral()
        first = tier.fetch(doc(), 0.0)
        assert first.tier == "origin"
        assert first.cost_ns == ORIGIN_TIER_NS
        # same zone, different host: CDN is warm now
        other = tier.fetch(doc(host="h2"), 0.0)
        assert other.tier == "cdn" and other.cost_ns == CDN_TIER_NS
        # same host again: host tier
        again = tier.fetch(doc(), 0.0)
        assert again.tier == "host" and again.cost_ns == HOST_TIER_NS
        assert tier.hits["origin"] == 1
        assert tier.hits["cdn"] == 1
        assert tier.hits["host"] == 1

    def test_tiers_warm_on_the_way_through(self):
        tier = ZonedCollateral()
        # cold everywhere: origin, warming CDN + host
        assert tier.fetch(doc(), 0.0).cost_ns == ORIGIN_TIER_NS
        # same host again: host tier
        assert tier.fetch(doc(), 0.0).cost_ns == HOST_TIER_NS
        assert tier.hits == {"host": 1, "cdn": 0, "origin": 1,
                             "stale": 0, "outage_failures": 0,
                             "local": 0}

    def test_cdn_tier_for_zone_sibling(self):
        tier = ZonedCollateral()
        tier.fetch(doc(host="a"), 0.0)                           # origin
        assert tier.fetch(doc(host="b"), 0.0).tier == "cdn"
        # a host in another zone does not see z1's replica
        assert tier.fetch(doc(host="c", zone="z2"), 0.0).tier == "origin"

    def test_outage_serves_stale_when_cdn_warm(self):
        tier = ZonedCollateral()
        tier.fetch(doc(), 0.0)                                   # warm CDN
        tier.outages["z1"] = (10.0, 100.0)
        hit = tier.fetch(doc(host="sibling"), 50.0)
        assert hit.tier == "stale" and hit.cost_ns == CDN_TIER_NS
        assert tier.hits["stale"] == 1
        # the window is half-open: at its end the origin answers again
        assert tier.fetch(doc(host="late"), 100.0).tier == "cdn"

    def test_outage_with_cold_cdn_fails_the_boot(self):
        tier = ZonedCollateral()
        tier.outages["z1"] = (0.0, 100.0)
        assert tier.fetch(doc(), 50.0) is None
        assert tier.hits["outage_failures"] == 1
        assert not tier.cdn_warm and not tier.host_warm

    def test_non_networked_platform_is_local_and_free(self):
        tier = ZonedCollateral()
        hit = tier.fetch(doc(platform="cca"), 0.0)
        assert hit.tier == "local" and hit.cost_ns == 0.0
        assert tier.hits["local"] == 1

    def test_cca_has_nothing_to_fetch(self):
        # a fleet host, addressed the way the cluster gateway does
        profile = build_fleet(1)[0]
        tier = ZonedCollateral()
        hit = tier.fetch(CollateralDoc(platform="cca", host=profile.name,
                                       zone=profile.zone), 0.0)
        assert hit.cost_ns == 0.0
        assert tier.hits["local"] == 1
        assert not tier.cdn_warm and not tier.host_warm
