"""Fixture: D110-clean — mutations stay on audited fluid paths.

Linted as ``repro.sim.fluid``.
"""


class Scheduler:
    def __init__(self) -> None:
        self.rounds = 0

    def note_round(self, flow, ctx):
        # Bookkeeping roots (self/flow/ctx) are not simulator state.
        self.rounds += 1
        flow.sent += flow.round_size
        ctx.mutated = True

    def _walk_packet(self, switch, cache, record):
        switch.stats.packets += 1
        cache.insert(record.dst_vip, record.outer_dst)

    def _escalate(self, sender):
        sender.next_seq = 0

    def peek(self, cache, vip):
        return cache.lookup(vip)
