"""Fixture: R304-clean — fault state changes through its methods.

Linted as ``repro.net.node``: ``Switch.fail`` and ``set_slowdown`` are
writers the rule allows there; everything else only reads fault state
or writes attributes of other names.
"""


class Switch:
    def fail(self):
        self._failed = True

    def set_slowdown(self, extra_ns):
        self._slow_ns = extra_ns

    def crash(self):
        self.fail()


def cut(fabric, link, gateway):
    if link.up:
        fabric.set_link_state(link, False)
    gateway.failed = True
    link.upstream = None
    up = False
    return up
