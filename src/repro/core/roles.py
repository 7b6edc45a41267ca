"""Switch role classification (paper §3.2, Table 1).

SwitchV2P classifies switches into five categories by their position
relative to the gateways: gateway ToRs (directly attached to a
gateway), gateway spines (directly attached to a gateway ToR), and
regular ToRs, spines and cores.  Each category gets its own admission
policy and special functions.
"""

from __future__ import annotations

from enum import IntEnum

from repro.net.node import Layer
from repro.net.topology import Fabric


class Role(IntEnum):
    """SwitchV2P switch categories."""

    TOR = 0
    SPINE = 1
    CORE = 2
    GATEWAY_TOR = 3
    GATEWAY_SPINE = 4


def assign_roles(fabric: Fabric) -> dict[int, Role]:
    """Map every switch id in ``fabric`` to its SwitchV2P role."""
    gateway_tors = fabric.gateway_tor_ids()
    gateway_spines = fabric.gateway_spine_ids()
    roles: dict[int, Role] = {}
    for switch in fabric.switches:
        if switch.switch_id in gateway_tors:
            roles[switch.switch_id] = Role.GATEWAY_TOR
        elif switch.switch_id in gateway_spines:
            roles[switch.switch_id] = Role.GATEWAY_SPINE
        elif switch.layer == Layer.TOR:
            roles[switch.switch_id] = Role.TOR
        elif switch.layer == Layer.SPINE:
            roles[switch.switch_id] = Role.SPINE
        else:
            roles[switch.switch_id] = Role.CORE
    return roles
