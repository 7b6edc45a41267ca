"""GwCache: caching only at gateway ToRs, mimicking Sailfish (paper §5).

Sailfish accelerates cloud gateways by moving the V2P table into the
gateway's programmable ToR switch.  Here the gateway-ToR caches learn
mappings dynamically in the data plane (destination learning from
gateway-translated traffic), which is the variant the paper evaluates.
A hit still requires the packet to travel all the way to the gateway
pod — the structural disadvantage SwitchV2P removes (§5.1, "FCT vs.
cache hit rate").
"""

from __future__ import annotations

from repro.baselines.caching import CachingScheme
from repro.vnet.network import VirtualNetwork


class GwCache(CachingScheme):
    """Destination-learning caches on the gateway ToR switches only."""

    name = "GwCache"

    def caching_switch_ids(self, network: VirtualNetwork):
        return sorted(network.fabric.gateway_tor_ids())
