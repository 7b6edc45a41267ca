"""Fixture: R303-clean — every fault mutator notes the fault.

Linted as ``repro.net.topology``.
"""


class Fabric:
    def __init__(self):
        self._route_memo = {}
        self.fault_count = 0

    def note_fault(self):
        self.fault_count += 1
        self._route_memo.clear()
        self.guard()

    def set_link_state(self, link, up):
        link.up = up
        self.note_fault()
