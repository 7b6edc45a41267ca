"""A fixed reference loop that tells how fast the machine is right now.

The box this benchmark was built on (a 2-vCPU VM on a shared host)
changes speed in steps: the same simulation takes 0.8x, 1.0x or 1.2x its
usual time for 5-30 s at a stretch, whatever runs inside the VM
(README.md, "Sizing and noise").  One invocation of the benchmark lasts
about as long as one such episode, so medians over its repeats cannot
average the episodes out, and ten invocations of one commit spread by
10-20 %.

This loop is a frozen, miniature discrete-event simulation (a heap, per
node dicts, attribute access, method calls, tuple churn) that shares no
code with ``src/``.  The episodes slow it down by the same factor as the
simulator (correlation 0.75 per repeat), so timing it right before and
after every repeat and dividing gives host times *at the reference
speed*: ten invocations then spread by 3-5 %.  It must never change:
every committed number is relative to it.
"""

from __future__ import annotations

import heapq
import statistics
import time

#: What one ``reference_loop()`` takes on the build box in its usual
#: state.  Reported host seconds are raw seconds x (this / observed).
REFERENCE_S = 0.016
#: Loop runs per calibration; their median is the observation.
ROUNDS = 5


class _Node:
    __slots__ = ("table", "peer")

    def __init__(self) -> None:
        self.table: dict[int, int] = {}
        self.peer = self

    def receive(self, heap: list, now: int, key: int) -> None:
        self.table[key & 4095] = now
        if self.table.get((key * 7) & 4095, 0) <= now:
            heapq.heappush(heap, (now + 1 + (key & 7), key + 64, self.peer))
        else:
            heapq.heappush(heap, (now + 2, key + 64, self))


def reference_loop(events: int = 20_000, nodes: int = 2_000) -> None:
    ring = [_Node() for _ in range(nodes)]
    for index, node in enumerate(ring):
        node.peer = ring[(index * 37 + 11) % nodes]
    heap = [(index, index, ring[index]) for index in range(64)]
    heapq.heapify(heap)
    for _ in range(events):
        now, key, node = heapq.heappop(heap)
        node.receive(heap, now, key)


def machine_speed() -> float:
    """How slow the machine is now: observed / reference loop time (1.0 = usual)."""
    samples = []
    for _ in range(ROUNDS):
        begin = time.perf_counter()
        reference_loop()
        samples.append(time.perf_counter() - begin)
    return statistics.median(samples) / REFERENCE_S
