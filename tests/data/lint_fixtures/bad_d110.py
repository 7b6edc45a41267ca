"""Fixture: D110 — fluid-path mutations outside audited helpers.

Linted as ``repro.sim.fluid``, the module D110 holds to its paths.
"""


class Scheduler:
    def refresh_counters(self, switch, cache, record):
        switch.stats.packets += 1
        cache.insert(record.dst_vip, record.outer_dst)
        setattr(record, "bytes_received", 0)

    def _commit_round(self, flow, switch):
        # Audited: commits may replay state directly.
        switch.stats.packets += flow.round_size
