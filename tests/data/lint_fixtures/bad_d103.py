"""Fixture: D103 — order-sensitive iteration over sets.

Linted as ``repro.fixtures.bad_d103``.
"""


def collect(switches):
    active = {s for s in switches if s.up}
    ordered = list(active)
    for switch in active | {None}:
        del switch
    return ordered, [s.name for s in active]
