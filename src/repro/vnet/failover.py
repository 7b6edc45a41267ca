"""Hypervisor-side gateway failure detection and failover.

The paper's §2.4 rejects in-switch DHT designs partly because resolver
and gateway failures are *critical*: packets black-hole until something
notices.  Production virtual networks handle this at the end hosts —
hypervisors time out on unanswered resolutions, probe the gateway with
exponential backoff, and after a few missed probes fail the gateway out
of the load-balancing pool so new (and retransmitted) packets pick a
surviving gateway.  A later successful probe reinstates it.

:class:`GatewayFailureDetector` models exactly that control loop on the
simulation clock.  Detection latency is therefore not instantaneous:
packets sent during the window between crash and detection are lost and
must be recovered by the transport (RTO backoff), which is what the
resilience experiments measure.

Beyond the binary crashed/alive signal, the detector optionally tracks
*gray* degradation: each healthy probe samples the gateway's current
shed rate and service latency, folds them into per-gateway EWMAs, and
fails the gateway out of the pool when either EWMA crosses its
threshold.  Reinstatement uses hysteresis twice over — the EWMA must
fall back below *half* the degrade threshold, and a minimum dwell time
must have passed since the last bad sample — so a flapping gateway does
not thrash the pool (and the flow->gateway memo) on every oscillation.
Both thresholds default to 0 (disabled), preserving the historical
binary detector bit-for-bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.engine import msec, usec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.vnet.gateway import Gateway
    from repro.vnet.network import VirtualNetwork

#: Steady-state probe period while a gateway is believed healthy.
DEFAULT_PROBE_INTERVAL_NS = usec(200)
#: First retry delay after a missed probe; doubles per further miss.
DEFAULT_BACKOFF_BASE_NS = usec(100)
#: Ceiling on the exponential backoff between probes of a dead gateway.
DEFAULT_MAX_BACKOFF_NS = msec(2)
#: Missed probes before the gateway is declared dead (failed over).
DEFAULT_MISS_THRESHOLD = 3


class GatewayFailureDetector:
    """Probe every gateway; fail over on misses, reinstate on success.

    Args:
        network: the :class:`~repro.vnet.network.VirtualNetwork` whose
            live-gateway pool this detector manages.
        probe_interval_ns: period between probes of a healthy gateway
            (the hypervisor's resolution-timeout granularity).
        backoff_base_ns: retry delay after the first missed probe;
            subsequent misses double it (exponential backoff).
        max_backoff_ns: backoff ceiling — also bounds how long a
            recovered gateway can stay undetected.
        miss_threshold: consecutive missed probes before failover.
        reinstate_dwell_ns: minimum time since the last bad sample
            (missed probe or over-threshold gray sample) before a
            healthy probe may reset miss counts or reinstate the
            gateway.  0 (the default) preserves the historical
            immediate-reinstatement behaviour.
        gray_loss_threshold: fail the gateway out when its shed-rate
            EWMA reaches this value; 0 disables gray loss detection.
        gray_latency_threshold_ns: fail the gateway out when its
            service-latency EWMA reaches this value; 0 disables gray
            latency detection.
        ewma_alpha: weight of the newest sample in both EWMAs.
    """

    def __init__(self, network: VirtualNetwork,
                 probe_interval_ns: int = DEFAULT_PROBE_INTERVAL_NS,
                 backoff_base_ns: int = DEFAULT_BACKOFF_BASE_NS,
                 max_backoff_ns: int = DEFAULT_MAX_BACKOFF_NS,
                 miss_threshold: int = DEFAULT_MISS_THRESHOLD,
                 reinstate_dwell_ns: int = 0,
                 gray_loss_threshold: float = 0.0,
                 gray_latency_threshold_ns: int = 0,
                 ewma_alpha: float = 0.3) -> None:
        if probe_interval_ns <= 0 or backoff_base_ns <= 0:
            raise ValueError("probe and backoff periods must be positive")
        if miss_threshold < 1:
            raise ValueError(f"miss threshold must be >= 1, got {miss_threshold}")
        if reinstate_dwell_ns < 0:
            raise ValueError(f"negative reinstatement dwell: {reinstate_dwell_ns}")
        if not 0.0 <= gray_loss_threshold <= 1.0:
            raise ValueError(
                f"gray loss threshold must be in [0, 1], got {gray_loss_threshold}")
        if gray_latency_threshold_ns < 0:
            raise ValueError(
                f"negative gray latency threshold: {gray_latency_threshold_ns}")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError(f"ewma alpha must be in (0, 1], got {ewma_alpha}")
        self.network = network
        self.probe_interval_ns = probe_interval_ns
        self.backoff_base_ns = backoff_base_ns
        self.max_backoff_ns = max_backoff_ns
        self.miss_threshold = miss_threshold
        self.reinstate_dwell_ns = reinstate_dwell_ns
        self.gray_loss_threshold = gray_loss_threshold
        self.gray_latency_threshold_ns = gray_latency_threshold_ns
        self.ewma_alpha = ewma_alpha
        self.probes_sent = 0
        self.detections = 0
        self.reinstatements = 0
        self.gray_detections = 0
        self.gray_reinstatements = 0
        self._misses: dict[int, int] = {}
        self._started = False
        #: Armed probe timers by gateway PIP, cancelled by ``stop()``.
        self._probe_timers: dict[int, object] = {}
        #: Per-gateway gray-health state: shed-rate / latency EWMAs,
        #: gateways currently failed out for gray degradation, and the
        #: time of the last bad sample (for dwell hysteresis).
        self._loss_ewma: dict[int, float] = {}
        self._latency_ewma: dict[int, float] = {}
        self._gray_out: set[int] = set()
        self._last_bad_ns: dict[int, int] = {}

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin probing every gateway currently attached."""
        if self._started:
            return
        self._started = True
        engine = self.network.engine
        for gateway in self.network.gateways:
            pip = gateway.pip
            self._misses[pip] = 0
            self._loss_ewma[pip] = 0.0
            self._latency_ewma[pip] = float(gateway.processing_ns)
            # "Long ago" sentinel so dwell gating never blocks a gateway
            # that has been healthy since probing started.
            self._last_bad_ns[pip] = -(10 ** 18)
            self._probe_timers[pip] = engine.schedule_timer(
                self.probe_interval_ns, self._probe, gateway)

    def stop(self) -> None:
        """Cancel all armed probes."""
        engine = self.network.engine
        for timer in self._probe_timers.values():
            engine.cancel_timer(timer)
        self._probe_timers.clear()
        self._started = False

    # ------------------------------------------------------------------
    def _probe(self, gateway: Gateway) -> None:
        self.probes_sent += 1
        pip = gateway.pip
        now = self.network.engine.now
        if gateway.failed:
            self._last_bad_ns[pip] = now
            misses = self._misses[pip] + 1
            self._misses[pip] = misses
            if misses == self.miss_threshold:
                self.detections += 1
                self.network.mark_gateway_down(gateway)
            # Exponential backoff between retries of an unresponsive
            # gateway, capped so recovery is detected within the cap.
            delay = min(self.max_backoff_ns,
                        self.backoff_base_ns << min(misses - 1, 32))
        else:
            # A healthy probe only clears crash-detection state once
            # the gateway has stayed well for the dwell period; without
            # this, a flapping gateway resets its miss count on every
            # brief recovery and is never failed over (detector
            # thrash).  dwell=0 preserves the historical behaviour.
            if now - self._last_bad_ns[pip] >= self.reinstate_dwell_ns:
                if self._misses[pip] >= self.miss_threshold:
                    self.reinstatements += 1
                    self.network.mark_gateway_up(gateway)
                self._misses[pip] = 0
            self._update_gray(gateway, now)
            delay = self.probe_interval_ns
        self._probe_timers[pip] = self.network.engine.schedule_timer(
            delay, self._probe, gateway)

    def _update_gray(self, gateway: Gateway, now: int) -> None:
        """Fold one healthy-probe sample into the gray-health EWMAs.

        Probes measure what a real health stream would see: the current
        brownout shed rate, and the service latency including inflation.
        Degrade thresholds are compared against the EWMA (not the raw
        sample) so single spikes don't fail a gateway out; reinstatement
        requires the EWMA back below half the threshold *and* the dwell
        period elapsed since the last over-threshold sample.
        """
        if not self.gray_loss_threshold and not self.gray_latency_threshold_ns:
            return
        pip = gateway.pip
        alpha = self.ewma_alpha
        sample_latency = gateway.processing_ns + gateway.brownout_extra_ns
        loss = self._loss_ewma[pip] = (
            (1.0 - alpha) * self._loss_ewma[pip]
            + alpha * gateway.brownout_drop_rate)
        latency = self._latency_ewma[pip] = (
            (1.0 - alpha) * self._latency_ewma[pip] + alpha * sample_latency)
        lossy = bool(self.gray_loss_threshold) and loss >= self.gray_loss_threshold
        slow = (bool(self.gray_latency_threshold_ns)
                and latency >= self.gray_latency_threshold_ns)
        if lossy or slow:
            self._last_bad_ns[pip] = now
        if pip not in self._gray_out:
            if lossy or slow:
                self._gray_out.add(pip)
                self.gray_detections += 1
                self.network.mark_gateway_down(gateway)
            return
        cleared_loss = (not self.gray_loss_threshold
                        or loss <= self.gray_loss_threshold / 2.0)
        cleared_latency = (not self.gray_latency_threshold_ns
                           or latency <= self.gray_latency_threshold_ns / 2.0)
        if (cleared_loss and cleared_latency
                and now - self._last_bad_ns[pip] >= self.reinstate_dwell_ns):
            self._gray_out.discard(pip)
            self.gray_reinstatements += 1
            self.network.mark_gateway_up(gateway)
