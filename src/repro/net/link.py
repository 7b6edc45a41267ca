"""Point-to-point links with FIFO queueing, serialization and drops.

Each :class:`Link` is unidirectional and models a single-server FIFO
queue: a packet admitted at time *t* begins serialization when the link
becomes free, occupies the link for ``wire_bytes * 8 / rate`` and
arrives at the peer one propagation delay later.  The backlog implied
by ``busy_until`` is the queue occupancy; packets that would push it
past the configured buffer are dropped.  This is the standard
store-and-forward abstraction NS3 point-to-point devices implement, so
gateway-pod congestion (paper Figures 7/8) emerges from the same
mechanics as in the paper's simulations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.engine import BUCKET_SHIFT, Engine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.node import Node
    from repro.net.packet import Packet


#: Serialization-time caches shared by every link of a given line rate.
#: ``wire_bytes -> ns`` is a pure function of (size, rate), and a
#: topology has a handful of distinct rates but up to tens of thousands
#: of links — one shared dict per rate replaces one dict per link.
_SER_CACHES: dict[float, dict[int, int]] = {}


class Link:
    """A unidirectional link from ``src`` to ``dst``.

    It keeps its own counters (``link.stats`` is the link): ``packets`` /
    ``bytes`` put on the wire, lost ones included; ``drops`` refused (tail
    drop, down link); ``lost`` / ``lost_bytes`` corrupted on the wire.

    Args:
        engine: simulation engine used to schedule deliveries.
        src: transmitting node (kept for introspection/debugging).
        dst: receiving node; its ``receive`` method is the delivery
            callback.
        rate_bps: line rate in bits per second.
        propagation_ns: signal propagation delay in nanoseconds.
        buffer_bytes: maximum queue backlog before tail drop.
    """

    __slots__ = (
        "engine",
        "src",
        "dst",
        "_rate_bps",
        "propagation_ns",
        "buffer_bytes",
        "up",
        "loss_rate",
        "_loss_rng",
        "_base_propagation_ns",
        "_busy_until",
        "packets",
        "bytes",
        "drops",
        "lost",
        "lost_bytes",
        "_deliver",
        "_ser_cache",
        "_src_is_host",
    )

    def __init__(
        self,
        engine: Engine,
        src: Node,
        dst: Node,
        rate_bps: float,
        propagation_ns: int,
        buffer_bytes: int,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError(f"link rate must be positive, got {rate_bps}")
        if propagation_ns < 0:
            raise ValueError(f"negative propagation delay: {propagation_ns}")
        self.engine = engine
        self.src = src
        self.dst = dst
        self._rate_bps = rate_bps
        #: Healthy propagation delay; :meth:`set_extra_latency` inflates
        #: ``propagation_ns`` relative to this (gray link degradation).
        self.propagation_ns = self._base_propagation_ns = propagation_ns
        self.buffer_bytes = buffer_bytes
        #: Administrative/physical state: a down link drops everything
        #: offered to it (fiber cut, transceiver failure).  Neighbours
        #: route around down links where equal-cost siblings exist.
        self.up = True
        #: Per-packet random loss probability (bit errors, flaky optics).
        self.loss_rate = 0.0
        self._loss_rng = None
        self._busy_until = 0
        self.packets = self.bytes = self.drops = self.lost = self.lost_bytes = 0
        #: The destination's one bound ``receive`` (see :class:`Node`):
        #: saves two attribute lookups per transmitted packet.
        self._deliver = dst._receive
        #: Serialization times per wire size, shared across all links
        #: of this rate; traces use a handful of distinct packet sizes,
        #: so this cache is tiny and hot.
        self._ser_cache = _SER_CACHES.setdefault(rate_bps, {})
        #: NOTE: ``rate_bps`` is a property; assigning it (tests that
        #: throttle a live link) rebinds ``_ser_cache`` to the new
        #: rate's shared dict so stale times are neither served nor
        #: written into another rate's cache.
        #: True when ``src`` is an end-host hypervisor (set by the
        #: network builder).  ToRs consult this for misdelivery tagging
        #: instead of an isinstance check per packet; gateways attach
        #: at host ports too but deliberately stay False.
        self._src_is_host = False

    @property
    def stats(self) -> Link:
        """The link itself: its counters are its own slots, which the
        per-hop paths update directly."""
        return self

    @property
    def rate_bps(self) -> float:
        """Line rate in bits per second (hot paths read the slot)."""
        return self._rate_bps

    @rate_bps.setter
    def rate_bps(self, rate_bps: float) -> None:
        if rate_bps <= 0:
            raise ValueError(f"link rate must be positive, got {rate_bps}")
        self._rate_bps = rate_bps
        self._ser_cache = _SER_CACHES.setdefault(rate_bps, {})

    def set_loss(self, rate: float, rng) -> None:
        """Configure random loss with probability ``rate`` per packet.

        Args:
            rate: loss probability in [0, 1]; 0 disables loss.
            rng: a ``random()``-bearing generator (e.g. a numpy
                Generator from :class:`repro.sim.randomness.RandomStreams`)
                so loss is reproducible for a fixed seed.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {rate}")
        # Turning lossy or healing is a gray fault of the fabric's.
        fabric = getattr(self.src, "fabric", None) or getattr(self.dst, "fabric", None)
        if fabric is not None:
            fabric.note_gray((rate > 0.0) - (self._loss_rng is not None))
        self.loss_rate = rate
        self._loss_rng = rng if rate > 0.0 else None

    def set_extra_latency(self, extra_ns: int) -> None:
        """Inflate propagation delay by ``extra_ns`` over the healthy base.

        Gray degradation (congested optics, rerouted patch panel): the
        inflation is absolute, not cumulative — a second call replaces
        the first, and 0 restores the built delay.  In-flight packets
        keep the delay that was current when they were transmitted.
        """
        if extra_ns < 0:
            raise ValueError(f"negative latency inflation: {extra_ns}")
        self.propagation_ns = self._base_propagation_ns + extra_ns

    def queue_backlog_bytes(self, now: int) -> int:
        """Bytes currently waiting or in transmission on this link."""
        pending_ns = self._busy_until - now
        if pending_ns <= 0:
            return 0
        return int(pending_ns * self._rate_bps / 8e9)

    def serialization_ns(self, wire_bytes: int) -> int:
        """Time to clock ``wire_bytes`` onto the wire, in nanoseconds."""
        ns = self._ser_cache.get(wire_bytes)
        if ns is None:
            ns = int(round(wire_bytes * 8e9 / self._rate_bps))
            self._ser_cache[wire_bytes] = ns
        return ns

    def transmit(self, packet: Packet) -> bool:
        """Enqueue ``packet`` for transmission.

        Returns:
            True if the packet was admitted, False if it was tail-dropped
            or the link is down.

        This is the per-hop hot path: the backlog computation is the
        inlined body of :meth:`queue_backlog_bytes`, serialization
        times come from a per-size cache (the steady state does no
        floating-point math at all), the wire size is read through the
        packet's cache slot, and the delivery event is pushed onto the
        calendar directly — ``Engine.schedule_after`` minus the call
        and the negative-delay check, which ``finish >= now`` and a
        non-negative propagation delay make redundant here.
        """
        if not self.up:
            self.drops += 1
            return False
        engine = self.engine
        now = engine._now
        busy = self._busy_until
        size = packet._wire_bytes
        pending_ns = busy - now
        backlog = int(pending_ns * self._rate_bps / 8e9) if pending_ns > 0 else 0
        if backlog + size > self.buffer_bytes:
            self.drops += 1
            return False
        start = busy if busy > now else now
        ser_ns = self._ser_cache.get(size)
        if ser_ns is None:
            ser_ns = int(round(size * 8e9 / self._rate_bps))
            self._ser_cache[size] = ser_ns
        finish = start + ser_ns
        self._busy_until = finish
        self.packets += 1
        self.bytes += size
        if self._loss_rng is not None \
                and self._loss_rng.random() < self.loss_rate:
            # The packet occupied the wire but arrives corrupted; the
            # sender sees it as admitted (loss is invisible until the
            # transport times out), so still return True.
            self.lost += 1
            self.lost_bytes += size
            return True
        at = finish + self.propagation_ns
        engine._buckets[at >> BUCKET_SHIFT].append(
            (at, engine._sequence, self._deliver, (packet, self)))
        engine._sequence += 1
        return True
