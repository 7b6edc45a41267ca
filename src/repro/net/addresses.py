"""Virtual and physical addresses.

Virtual IPs (VIPs) are flat identifiers with no location information —
exactly the property that forces virtual-to-physical translation in the
first place (paper §1).  Physical IPs (PIPs) are hierarchical: the pod,
rack and host index are encoded in the address, mirroring real data
center addressing plans.  The hierarchy is what lets any switch compute
the ToR serving a given PIP, which the learning-packet mechanism
(paper §3.2.2, footnote 4) relies on.

Both address kinds are plain ``int`` values for speed; the functions in
this module pack, unpack and pretty-print them.
"""

from __future__ import annotations

# Bit layout of a PIP:  [pod:14][rack:10][host:12]
_HOST_BITS = 12
_RACK_BITS = 10
_POD_BITS = 14
_HOST_MASK = (1 << _HOST_BITS) - 1
_RACK_MASK = (1 << _RACK_BITS) - 1
_POD_MASK = (1 << _POD_BITS) - 1
_POD_SHIFT = _RACK_BITS + _HOST_BITS

MAX_HOSTS_PER_RACK = _HOST_MASK + 1
MAX_RACKS_PER_POD = _RACK_MASK + 1
MAX_PODS = _POD_MASK + 1

#: Sentinel used as the outer destination before translation.  Real
#: deployments fix well-known gateway anycast addresses (paper §3.1);
#: the concrete gateway PIP is chosen per flow by the sender's
#: hypervisor, so this sentinel never appears on the wire.
UNRESOLVED = -1

#: Interning table for packed PIPs: every distinct address is boxed
#: once and every later ``make_pip`` of the same coordinates returns
#: the same object.  Addresses outgrow CPython's small-int cache, and
#: at 100k+ VM scale each PIP is referenced from many tables (host,
#: ToR attachment, mapping database, follow-me rules) — one canonical
#: object per address keeps those references shared.
_PIP_INTERN: dict[int, int] = {}


def make_pip(pod: int, rack: int, host: int) -> int:
    """Pack (pod, rack, host) into an interned physical IP.

    Raises:
        ValueError: if any coordinate exceeds the field width.
    """
    if not 0 <= pod <= _POD_MASK:
        raise ValueError(f"pod {pod} out of range [0, {_POD_MASK}]")
    if not 0 <= rack <= _RACK_MASK:
        raise ValueError(f"rack {rack} out of range [0, {_RACK_MASK}]")
    if not 0 <= host <= _HOST_MASK:
        raise ValueError(f"host {host} out of range [0, {_HOST_MASK}]")
    pip = (pod << _POD_SHIFT) | (rack << _HOST_BITS) | host
    return _PIP_INTERN.setdefault(pip, pip)


def pip_pod(pip: int) -> int:
    """Pod index encoded in a PIP."""
    return (pip >> _POD_SHIFT) & _POD_MASK


def pip_rack(pip: int) -> int:
    """Rack index (within its pod) encoded in a PIP."""
    return (pip >> _HOST_BITS) & _RACK_MASK


def pip_host(pip: int) -> int:
    """Host index (within its rack) encoded in a PIP."""
    return pip & _HOST_MASK


def split_pip(pip: int) -> tuple[int, int, int]:
    """Unpack a PIP into ``(pod, rack, host)``."""
    return pip_pod(pip), pip_rack(pip), pip_host(pip)


def format_pip(pip: int) -> str:
    """Human-readable PIP, e.g. ``pip(3.1.7)`` for pod 3, rack 1, host 7."""
    if pip == UNRESOLVED:
        return "pip(unresolved)"
    pod, rack, host = split_pip(pip)
    return f"pip({pod}.{rack}.{host})"


def format_vip(vip: int) -> str:
    """Human-readable VIP."""
    return f"vip({vip})"
