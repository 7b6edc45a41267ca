"""Timed fault schedules: scripted chaos on the simulation clock.

A :class:`FaultSchedule` is a declarative list of fault events — fail
and recover a switch, cut and splice a link, impose random loss on a
link, crash and restart a gateway — applied to a
:class:`~repro.vnet.network.VirtualNetwork` before (or while) traffic
runs.  Because the same schedule object can be applied to networks
running different translation schemes, it is the controlled variable of
the resilience experiments: every scheme faces the identical fault
sequence and only the scheme's reaction differs.

The schedule is pure data until :meth:`FaultSchedule.apply` binds it to
a network; it can therefore be built once and replayed across runs.
Targets are addressed by *locator* (layer + coordinates) rather than by
object so a schedule is not tied to one network instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.link import Link
    from repro.net.node import Switch
    from repro.vnet.gateway import Gateway
    from repro.vnet.hypervisor import Host
    from repro.vnet.network import VirtualNetwork


class FaultKind(Enum):
    """What a fault event does when it fires."""

    SWITCH_FAIL = "switch-fail"
    SWITCH_RECOVER = "switch-recover"
    LINK_DOWN = "link-down"
    LINK_UP = "link-up"
    LINK_LOSS = "link-loss"
    GATEWAY_CRASH = "gateway-crash"
    GATEWAY_RESTART = "gateway-restart"
    #: Control-plane churn rather than a fault proper: live-migrate a
    #: VM to a located server.  Included so randomized schedules can
    #: exercise the lazy-invalidation path (stale caches, follow-me,
    #: misdelivery re-forwarding) alongside failures.
    VM_MIGRATE = "vm-migrate"
    # --- gray failures: degraded, not dead ---------------------------
    #: A lossy, slow cable: per-packet random loss plus propagation
    #: latency inflation on both directions.  Rate 0 and extra 0 heal.
    LINK_DEGRADE = "link-degrade"
    #: A flapping port: ``count`` down/up cycles, each half lasting
    #: ``period_ns``, starting the moment the event fires.
    LINK_FLAP = "link-flap"
    #: A switch whose control CPU or pipeline is overloaded: every
    #: forwarded packet is held ``extra_ns`` before egress.  0 heals.
    SWITCH_SLOW = "switch-slow"
    #: A browned-out gateway: still up, but sheds a fraction of
    #: arrivals (``loss_rate``) and adds queueing delay (``extra_ns``)
    #: to the rest.  The binary failure detector never sees it — only
    #: the gray (EWMA) detector can fail it out.  0/0 heals.
    GATEWAY_BROWNOUT = "gateway-brownout"
    #: Silent SRAM corruption: XOR bit ``bit`` into the PIP of the
    #: ``count``-th occupied line of the located switch's cache.
    CACHE_BITFLIP = "cache-bitflip"


#: Kinds whose ``loss_rate`` field is meaningful (and range-checked).
_LOSSY_KINDS = frozenset((FaultKind.LINK_LOSS, FaultKind.LINK_DEGRADE,
                          FaultKind.GATEWAY_BROWNOUT))


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: at ``at_ns``, do ``kind`` to ``target``.

    Attributes:
        at_ns: absolute simulation time the fault fires.
        kind: the action (see :class:`FaultKind`).
        target: locator tuple — ``("tor", pod, rack)``,
            ``("spine", pod, index)``, ``("core", index)``,
            ``("gateway", index)`` or ``("link", kind..., ...)`` where a
            link is located by its two switch endpoints.
        loss_rate: LINK_LOSS / LINK_DEGRADE per-packet loss
            probability; GATEWAY_BROWNOUT per-arrival shed probability.
        extra_ns: LINK_DEGRADE propagation inflation, SWITCH_SLOW
            per-packet forwarding delay, GATEWAY_BROWNOUT added
            queueing delay (all absolute, not cumulative; 0 heals).
        period_ns: LINK_FLAP half-period (time down == time up).
        count: LINK_FLAP cycle count; CACHE_BITFLIP occupied-line
            ordinal (modulo occupancy at fire time).
        bit: CACHE_BITFLIP bit index XORed into the stored PIP.
    """

    at_ns: int
    kind: FaultKind
    target: tuple
    loss_rate: float = 0.0
    extra_ns: int = 0
    period_ns: int = 0
    count: int = 0
    bit: int = 0

    def __post_init__(self) -> None:
        if self.at_ns < 0:
            raise ValueError(f"fault time must be >= 0, got {self.at_ns}")
        if self.kind in _LOSSY_KINDS and not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {self.loss_rate}")
        if self.extra_ns < 0 or self.period_ns < 0 or self.count < 0:
            raise ValueError(
                f"extra_ns/period_ns/count must be >= 0, got "
                f"{self.extra_ns}/{self.period_ns}/{self.count}")
        if self.kind is FaultKind.LINK_FLAP and (
                self.period_ns <= 0 or self.count < 1):
            raise ValueError(
                f"link flap needs period_ns > 0 and count >= 1, got "
                f"period_ns={self.period_ns}, count={self.count}")
        if not 0 <= self.bit < 64:
            raise ValueError(f"bit index must be in [0, 64), got {self.bit}")


class FaultSchedule:
    """A buildable, replayable list of timed fault events.

    Build with the fluent helpers (each returns ``self``)::

        schedule = (FaultSchedule()
                    .gateway_outage(gw=0, start_ns=msec(2), duration_ns=msec(2))
                    .switch_outage("spine", (0, 1), start_ns=msec(5),
                                   duration_ns=msec(1)))
        schedule.apply(network)

    ``apply`` schedules every event on the network's engine and, when
    any gateway event is present, starts the hypervisor-side gateway
    failure detector so failover actually happens.
    """

    def __init__(self) -> None:
        self.events: list[FaultEvent] = []
        #: (fired_at_ns, description) log filled in as events fire.
        self.fired: list[tuple[int, str]] = []
        #: ``(switch_id, vip, old_pip, new_pip)`` per CACHE_BITFLIP that
        #: actually corrupted a live line.  Oracles consult this so a
        #: deliberately injected corruption is not reported as a
        #: protocol coherence bug — only its *persistence* is.
        self.corruptions: list[tuple[int, int, int, int]] = []

    # ------------------------------------------------------------------
    # builders
    # ------------------------------------------------------------------
    def add(self, event: FaultEvent) -> FaultSchedule:
        self.events.append(event)
        return self

    def fail_switch(self, at_ns: int, layer: str,
                    where: Any) -> FaultSchedule:
        """Fail the switch at ``where`` (see :meth:`_find_switch`)."""
        return self.add(FaultEvent(at_ns, FaultKind.SWITCH_FAIL,
                                   _switch_locator(layer, where)))

    def recover_switch(self, at_ns: int, layer: str,
                       where: Any) -> FaultSchedule:
        return self.add(FaultEvent(at_ns, FaultKind.SWITCH_RECOVER,
                                   _switch_locator(layer, where)))

    def switch_outage(self, layer: str, where: Any, start_ns: int,
                      duration_ns: int) -> FaultSchedule:
        """Fail at ``start_ns`` and recover ``duration_ns`` later."""
        self.fail_switch(start_ns, layer, where)
        return self.recover_switch(start_ns + duration_ns, layer, where)

    def link_down(self, at_ns: int, a_locator: tuple,
                  b_locator: tuple) -> FaultSchedule:
        """Cut the (unidirectional pair of the) cable between two switches."""
        return self.add(FaultEvent(at_ns, FaultKind.LINK_DOWN,
                                   ("link", a_locator, b_locator)))

    def link_up(self, at_ns: int, a_locator: tuple,
                b_locator: tuple) -> FaultSchedule:
        return self.add(FaultEvent(at_ns, FaultKind.LINK_UP,
                                   ("link", a_locator, b_locator)))

    def link_outage(self, a_locator: tuple, b_locator: tuple, start_ns: int,
                    duration_ns: int) -> FaultSchedule:
        self.link_down(start_ns, a_locator, b_locator)
        return self.link_up(start_ns + duration_ns, a_locator, b_locator)

    def link_loss(self, at_ns: int, a_locator: tuple, b_locator: tuple,
                  rate: float) -> FaultSchedule:
        """Impose per-packet random loss ``rate`` on the cable (0 clears)."""
        return self.add(FaultEvent(at_ns, FaultKind.LINK_LOSS,
                                   ("link", a_locator, b_locator), rate))

    def crash_gateway(self, at_ns: int, index: int) -> FaultSchedule:
        """Crash the ``index``-th gateway of the network."""
        return self.add(FaultEvent(at_ns, FaultKind.GATEWAY_CRASH,
                                   ("gateway", index)))

    def restart_gateway(self, at_ns: int, index: int) -> FaultSchedule:
        return self.add(FaultEvent(at_ns, FaultKind.GATEWAY_RESTART,
                                   ("gateway", index)))

    def gateway_outage(self, index: int, start_ns: int,
                       duration_ns: int) -> FaultSchedule:
        self.crash_gateway(start_ns, index)
        return self.restart_gateway(start_ns + duration_ns, index)

    def migrate_vm(self, at_ns: int, vip: int, pod: int, rack: int,
                   host_index: int) -> FaultSchedule:
        """Live-migrate ``vip`` to the server at (pod, rack, host_index)."""
        return self.add(FaultEvent(at_ns, FaultKind.VM_MIGRATE,
                                   ("vm", int(vip), int(pod), int(rack),
                                    int(host_index))))

    # --- gray failures ------------------------------------------------
    def degrade_link(self, at_ns: int, a_locator: tuple, b_locator: tuple,
                     rate: float = 0.0, extra_ns: int = 0) -> FaultSchedule:
        """Make the cable lossy and slow (rate 0 + extra 0 heals it)."""
        return self.add(FaultEvent(at_ns, FaultKind.LINK_DEGRADE,
                                   ("link", a_locator, b_locator),
                                   loss_rate=rate, extra_ns=int(extra_ns)))

    def link_degradation(self, a_locator: tuple, b_locator: tuple,
                         start_ns: int, duration_ns: int, rate: float,
                         extra_ns: int = 0) -> FaultSchedule:
        """Degrade at ``start_ns``, heal ``duration_ns`` later."""
        self.degrade_link(start_ns, a_locator, b_locator, rate, extra_ns)
        return self.degrade_link(start_ns + duration_ns, a_locator, b_locator)

    def flap_link(self, at_ns: int, a_locator: tuple, b_locator: tuple,
                  period_ns: int, count: int = 1) -> FaultSchedule:
        """Flap the cable: ``count`` down/up cycles of ``period_ns`` halves."""
        return self.add(FaultEvent(at_ns, FaultKind.LINK_FLAP,
                                   ("link", a_locator, b_locator),
                                   period_ns=int(period_ns), count=int(count)))

    def slow_switch(self, at_ns: int, layer: str, where: Any,
                    extra_ns: int) -> FaultSchedule:
        """Inflate the switch's forwarding delay by ``extra_ns`` (0 heals)."""
        return self.add(FaultEvent(at_ns, FaultKind.SWITCH_SLOW,
                                   _switch_locator(layer, where),
                                   extra_ns=int(extra_ns)))

    def switch_slowdown(self, layer: str, where: Any, start_ns: int,
                        duration_ns: int, extra_ns: int) -> FaultSchedule:
        """Slow at ``start_ns``, restore full speed ``duration_ns`` later."""
        self.slow_switch(start_ns, layer, where, extra_ns)
        return self.slow_switch(start_ns + duration_ns, layer, where, 0)

    def brownout_gateway(self, at_ns: int, index: int, drop_rate: float = 0.0,
                         extra_ns: int = 0) -> FaultSchedule:
        """Brown out the gateway: shed + delay arrivals (0/0 heals)."""
        return self.add(FaultEvent(at_ns, FaultKind.GATEWAY_BROWNOUT,
                                   ("gateway", index), loss_rate=drop_rate,
                                   extra_ns=int(extra_ns)))

    def gateway_brownout(self, index: int, start_ns: int, duration_ns: int,
                         drop_rate: float, extra_ns: int = 0) -> FaultSchedule:
        """Brownout window: degrade at ``start_ns``, heal after the window."""
        self.brownout_gateway(start_ns, index, drop_rate, extra_ns)
        return self.brownout_gateway(start_ns + duration_ns, index)

    def flip_cache_bit(self, at_ns: int, layer: str, where: Any,
                       entry: int = 0, bit: int = 0) -> FaultSchedule:
        """Corrupt one live line of the located switch's SRAM cache."""
        return self.add(FaultEvent(at_ns, FaultKind.CACHE_BITFLIP,
                                   _switch_locator(layer, where),
                                   count=int(entry), bit=int(bit)))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def has_gateway_events(self) -> bool:
        return any(event.kind in (FaultKind.GATEWAY_CRASH,
                                  FaultKind.GATEWAY_RESTART,
                                  FaultKind.GATEWAY_BROWNOUT)
                   for event in self.events)

    def first_fault_ns(self) -> int | None:
        """Time of the earliest fault (not recovery) event, if any."""
        starts = [e.at_ns for e in self.events
                  if e.kind in (FaultKind.SWITCH_FAIL, FaultKind.LINK_DOWN,
                                FaultKind.GATEWAY_CRASH, FaultKind.LINK_FLAP,
                                FaultKind.CACHE_BITFLIP)
                  or _is_onset(e)]
        return min(starts, default=None)

    def last_recovery_ns(self) -> int | None:
        """Time of the latest recovery event, if any.

        A LINK_FLAP counts as recovering when its last up half-cycle
        lands; a link-loss or gray event with zeroed degradation *is*
        the recovery.
        """
        ends = []
        for e in self.events:
            if e.kind in (FaultKind.SWITCH_RECOVER, FaultKind.LINK_UP,
                          FaultKind.GATEWAY_RESTART):
                ends.append(e.at_ns)
            elif e.kind is FaultKind.LINK_FLAP:
                ends.append(e.at_ns + (2 * e.count - 1) * e.period_ns)
            elif e.kind in _ZERO_HEALS and not _is_onset(e):
                ends.append(e.at_ns)
        return max(ends, default=None)

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------
    def apply(self, network: VirtualNetwork) -> None:
        """Bind to ``network``: schedule every event on its engine.

        Gateway events additionally enable the network's gateway
        failure detector (hypervisor-side failover); without it a
        crashed gateway would black-hole its flows for the whole run.
        """
        if self.has_gateway_events():
            network.enable_gateway_failover()
        for event in sorted(self.events, key=lambda e: e.at_ns):
            network.engine.schedule(event.at_ns, self._fire, network, event)

    def _fire(self, network: VirtualNetwork, event: FaultEvent) -> None:
        kind = event.kind
        if kind in (FaultKind.SWITCH_FAIL, FaultKind.SWITCH_RECOVER):
            switch = self._find_switch(network, event.target)
            if kind is FaultKind.SWITCH_FAIL:
                switch.fail()
            else:
                switch.recover()
            label = f"{kind.value} {switch.name}"
        elif kind in (FaultKind.LINK_DOWN, FaultKind.LINK_UP):
            label = ""
            for link in self._find_links(network, event.target):
                network.fabric.set_link_state(link, kind is FaultKind.LINK_UP)
                label = f"{kind.value} {link.src.name}<->{link.dst.name}"
        elif kind in (FaultKind.LINK_LOSS, FaultKind.LINK_DEGRADE):
            links = self._find_links(network, event.target)
            degrade = kind is FaultKind.LINK_DEGRADE
            network.fabric.impair_links(
                links, event.loss_rate,
                network.streams.stream("fault-link-loss"),
                event.extra_ns if degrade else None)
            label = (f"{kind.value} {event.loss_rate:.0%} "
                     + (f"+{event.extra_ns}ns " if degrade else "")
                     + f"{links[-1].src.name}<->{links[-1].dst.name}")
        elif kind is FaultKind.LINK_FLAP:
            links = self._find_links(network, event.target)
            engine = network.engine
            for cycle in range(event.count):
                down_after = 2 * cycle * event.period_ns
                engine.schedule_after(down_after, self._set_links,
                                      network, links, False)
                engine.schedule_after(down_after + event.period_ns,
                                      self._set_links, network, links, True)
            label = (f"{kind.value} x{event.count} "
                     f"half-period {event.period_ns}ns "
                     f"{links[0].src.name}<->{links[0].dst.name}")
        elif kind is FaultKind.SWITCH_SLOW:
            switch = self._find_switch(network, event.target)
            switch.set_slowdown(event.extra_ns)
            label = f"{kind.value} +{event.extra_ns}ns {switch.name}"
        elif kind is FaultKind.CACHE_BITFLIP:
            label = self._fire_bitflip(network, event)
        elif kind is FaultKind.VM_MIGRATE:
            label = self._fire_migration(network, event.target)
        else:
            gateway = self._find_gateway(network, event.target)
            label = f"{kind.value} {gateway.name}"
            if kind is FaultKind.GATEWAY_CRASH:
                gateway.fail()
            elif kind is FaultKind.GATEWAY_BROWNOUT:
                network.set_gateway_brownout(gateway, event.loss_rate,
                                             event.extra_ns)
                label = (f"{kind.value} {event.loss_rate:.0%} "
                         f"+{event.extra_ns}ns {gateway.name}")
            else:
                gateway.recover()
        self.fired.append((network.engine.now, label))

    @staticmethod
    def _set_links(network: VirtualNetwork, links: list[Link],
                   up: bool) -> None:
        """One flap half-cycle: toggle both directions of the cable."""
        for link in links:
            network.fabric.set_link_state(link, up)

    def _fire_bitflip(self, network: VirtualNetwork,
                      event: FaultEvent) -> str:
        """Corrupt one live cache line on the located switch.

        Schemes without per-switch caches (or with an empty cache at
        the located switch) make this a logged no-op, so one schedule
        stays applicable across schemes.
        """
        switch = self._find_switch(network, event.target)
        cache = network.scheme.cache_of(switch)
        flipped = (cache.corrupt_entry(event.count, event.bit)
                   if cache is not None else None)
        if flipped is None:
            return (f"{FaultKind.CACHE_BITFLIP.value} {switch.name} "
                    f"skipped: no corruptible cache entry")
        vip, old_pip, new_pip = flipped
        self.corruptions.append((switch.switch_id, vip, old_pip, new_pip))
        return (f"{FaultKind.CACHE_BITFLIP.value} {switch.name} "
                f"vip {vip}: {old_pip} -> {new_pip} (bit {event.bit})")

    @staticmethod
    def _fire_migration(network: VirtualNetwork, target: tuple) -> str:
        """Resolve a ``("vm", vip, pod, rack, host)`` target and migrate.

        A target naming a VIP or server the network does not have is a
        logged no-op rather than an error: randomized schedules must
        stay applicable (and deterministic) across topologies.
        """
        from repro.net.addresses import make_pip
        _tag, vip, pod, rack, host_index = target
        pip = make_pip(pod, rack, host_index)
        host: Host | None = None
        if network.database.get(vip) is not None:
            try:
                host = network.host(pip)  # made now if not made yet
            except KeyError:
                pass
        if host is None:
            return (f"{FaultKind.VM_MIGRATE.value} vip {vip} -> "
                    f"({pod},{rack},{host_index}) skipped: no such vip/server")
        network.migrate(vip, host)
        return f"{FaultKind.VM_MIGRATE.value} vip {vip} -> {host.name}"

    # ------------------------------------------------------------------
    # locator resolution
    # ------------------------------------------------------------------
    @staticmethod
    def _find_switch(network: VirtualNetwork, locator: tuple) -> Switch:
        fabric = network.fabric
        layer = locator[0]
        if layer == "tor":
            return fabric.tors[(locator[1], locator[2])]
        if layer == "spine":
            return fabric.spines[(locator[1], locator[2])]
        if layer == "core":
            return fabric.cores[locator[1]]
        raise ValueError(f"unknown switch locator {locator!r}")

    @classmethod
    def _find_links(cls, network: VirtualNetwork,
                    locator: tuple) -> list[Link]:
        """Both directions of the cable between two located switches."""
        _tag, a_loc, b_loc = locator
        a = cls._find_switch(network, a_loc)
        b = cls._find_switch(network, b_loc)
        return [network.fabric.link_between(a, b),
                network.fabric.link_between(b, a)]

    @staticmethod
    def _find_gateway(network: VirtualNetwork, locator: tuple) -> Gateway:
        return network.gateways[locator[1]]


#: Kinds where a zeroed event is the heal, not a fault onset.
_ZERO_HEALS = frozenset((FaultKind.LINK_LOSS, FaultKind.LINK_DEGRADE,
                         FaultKind.SWITCH_SLOW, FaultKind.GATEWAY_BROWNOUT))


def _is_onset(event: FaultEvent) -> bool:
    """True when a zero-heals event actually degrades something."""
    return (event.kind in _ZERO_HEALS
            and (event.loss_rate > 0.0 or event.extra_ns > 0))


def _switch_locator(layer: str, where: Any) -> tuple:
    """Normalize ``where`` into a locator tuple for ``layer``."""
    if layer not in ("tor", "spine", "core"):
        raise ValueError(f"unknown switch layer {layer!r}")
    if layer == "core":
        return ("core", int(where))
    pod, index = where
    return (layer, int(pod), int(index))
