"""Fixture: R303 — a fault mutator that forgets the memo invalidation.

Linted as ``repro.net.topology``, so the repository's own pairings for
``Fabric`` apply: ``set_link_state`` must reference ``note_fault``.
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
