"""SwitchV2P: the topology-aware in-network V2P caching protocol.

This is the paper's primary contribution (§3).  Every switch carries a
direct-mapped cache; packets are translated opportunistically en route
to the gateway, and the switches collaboratively manage the distributed
cache with per-role admission policies and four special functions:

* **learning packets** — gateway ToRs disseminate mappings toward the
  sender's ToR with probability ``p_learn``;
* **cache spillover** — evicted entries ride on the packet being
  processed and are re-admitted downstream;
* **promotion** — spines push entries that are hot on the gateway path
  up to the core switches so multiple pods can share them;
* **lazy invalidation** — misdelivery tags on re-forwarded packets plus
  targeted invalidation packets (rate-limited by a per-ToR timestamp
  vector) clean up stale entries after VM migrations (§3.3).
"""

from __future__ import annotations

from bisect import bisect_left

from repro.baselines.caching import CachingScheme
from repro.cache.core import HASH_MIX, SwitchCache
from repro.core.allocation import UNIFORM, AllocationPolicy, distribute_slots
from repro.core.config import SwitchV2PConfig
from repro.core.roles import Role, assign_roles
from repro.net.addresses import pip_pod, pip_rack
from repro.net.node import Layer, Switch, SwitchHook
from repro.net.packet import Packet, PacketKind
from repro.vnet.hypervisor import Host
from repro.vnet.network import VirtualNetwork

#: Control packets (learning/invalidation) get flow ids far above any
#: data flow so ECMP hashing and flow bookkeeping never collide.
_CONTROL_FLOW_BASE = 1 << 40

# Enum members pre-bound as module globals: the switch hooks compare
# against these once per switch hop, and a LOAD_GLOBAL is measurably
# cheaper than LOAD_GLOBAL + LOAD_ATTR at that frequency.
_DATA = PacketKind.DATA
_ACK = PacketKind.ACK
_LEARNING = PacketKind.LEARNING

#: Learning-stream values drawn per refill of ``SwitchV2P``'s buffer.
_LEARN_BLOCK = 512


def _owner_lines(cache) -> tuple[list[int], list[int], int, int]:
    """``cache.owner_lines()``, or one line that no VIP ever owns.

    The hooks below settle the commonest learning outcome — the VIP
    already owns its line, so the value is overwritten and nothing
    else moves — with one compare on these arrays instead of a call to
    ``cache.insert``.  A cache without such lines (set-associative,
    empty) gets a dummy that always says "not the owner".
    """
    return cache.owner_lines() or ([-1], [0], 0, 1)


class SwitchV2P(CachingScheme):
    """The SwitchV2P translation scheme.

    Args:
        total_cache_slots: aggregate in-network cache budget.
        config: protocol feature configuration (defaults match §5).
        allocation: how the budget is split across switch roles; the
            default is the paper's equal split, alternatives implement
            the §4 heterogeneous-allocation discussion.
        cache_ways: cache associativity; 1 (the paper's direct-mapped
            hardware design) by default, >1 enables the set-associative
            ablation (not implementable at line rate on Tofino).
    """

    name = "SwitchV2P"

    def __init__(self, total_cache_slots: int,
                 config: SwitchV2PConfig | None = None,
                 allocation: AllocationPolicy = UNIFORM,
                 cache_ways: int = 1) -> None:
        super().__init__(total_cache_slots)
        self.config = config if config is not None else SwitchV2PConfig()
        self.allocation = allocation
        if cache_ways < 1:
            raise ValueError(f"associativity must be >= 1, got {cache_ways}")
        self.cache_ways = cache_ways
        self.roles: dict[int, Role] = {}
        self._collector = None
        self._learn_rng = None
        #: Block-refilled read buffer over ``_learn_rng`` and the index
        #: of the next unread value.  ``Generator.random(n)`` yields the
        #: same values as ``n`` scalar calls, so buffering changes no
        #: draw; it makes one draw a list index and lets the fluid
        #: replay look ahead (:meth:`skip_clean_learning_draws`) through
        #: ``_learn_hits``, the ascending indices of the triggering values.
        self._learn_buf: list[float] = []
        self._learn_pos = 0
        self._learn_hits: list[int] = []
        self._control_flow_seq = _CONTROL_FLOW_BASE
        #: Per-ToR timestamp vector: ToR id -> (target switch id -> last
        #: invalidation send time).  Local timestamps only (§3.3).
        self._timestamp_vectors: dict[int, dict[int, int]] = {}
        self.learning_packets_sent = 0
        self.invalidation_packets_sent = 0
        self.spillovers_reinserted = 0
        self.promotions_sent = 0
        self.promotions_admitted = 0
        #: Learning-RNG consumption counter.  The hybrid-fidelity probe
        #: walk diffs it around every switch hook to find draw sites: an
        #: analytic packet that skipped a draw its real counterpart would
        #: have made desynchronizes the stream, so draws are either
        #: replayed exactly (:meth:`skip_clean_learning_draws`,
        #: :meth:`replay_learning_draw`) or escalate.
        self.rng_draws = 0

    def make_cache(self, num_slots: int, salt: int) -> SwitchCache:
        return SwitchCache(num_slots, self.cache_ways, salt=salt)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def prepare(self, network: VirtualNetwork) -> None:
        """Assign roles and protocol state before caches are built."""
        self.roles = assign_roles(network.fabric)
        self._learn_rng = network.streams.stream("switchv2p-learning")
        # Buffered values belong to the stream they were drawn from.
        self._learn_buf = []
        self._learn_pos = 0
        self._learn_hits = []
        self._timestamp_vectors = {}
        self._gateway_pips = network.gateway_pip_set()

    def slots_by_switch(self, network: VirtualNetwork,
                        ids: list[int]) -> dict[int, int]:
        roles = {switch_id: self.roles[switch_id] for switch_id in ids}
        return distribute_slots(self.total_cache_slots, roles, self.allocation)

    def setup(self, network: VirtualNetwork) -> None:
        super().setup(network)
        self._collector = network.collector

    def _next_control_flow(self) -> int:
        self._control_flow_seq += 1
        return self._control_flow_seq

    # ------------------------------------------------------------------
    # host hooks
    # ------------------------------------------------------------------
    def on_misdelivery(self, host: Host, packet: Packet) -> None:
        """Misdelivered packets return to the gateway, tagged en route."""
        self.send_misdelivered_via_gateway(host, packet)

    # ------------------------------------------------------------------
    # switch hooks: one function per Table 1 role
    # ------------------------------------------------------------------
    # Every data/ack packet runs its switch's hook at every hop, so each
    # role gets its own straight-line function with the switch's cache
    # and the (frozen) config flags bound, instead of one body that
    # re-derives the role per packet.  The steps they share, in order:
    #
    # 1. control packets (learning, invalidation) leave at once;
    # 2. ToRs tag misdelivered packets (§3.3): a packet arriving from a
    #    host port whose outer source is not the attached server was
    #    re-forwarded by the hypervisor.  Gateways also attach to host
    #    ports but are excluded (their node type differs).  A
    #    re-forwarded packet whose original sender is colocated with
    #    the old VM location has outer_src == the attached server, so
    #    the source check alone misses it — the stale mapping it
    #    carries in-band is the tell; without it the ToR's own stale
    #    entry bounces the packet back to the same host indefinitely;
    # 3. in-band metadata is picked up: spilled entries (any non-core
    #    switch) and promotions (cores only);
    # 4. an unresolved packet is looked up — untagged, which is every
    #    lookup except the short window after a migration, that is the
    #    body of try_resolve() minus the misdelivery-tag protocol;
    # 5. the role's learning rule (Table 1).  "This VIP already owns
    #    its line" is settled on the cache's own arrays (_owner_lines).
    def bind_hook(self, switch: Switch) -> SwitchHook:
        cache = self.caches[switch.switch_id]  # every switch has one
        config = self.config
        if not config.role_aware:
            return self._admit_all_hook(switch, cache, gateway=False)
        role = self.roles[switch.switch_id]
        if role is Role.TOR:
            return self._tor_hook(switch, cache)
        if role is Role.GATEWAY_TOR:
            return self._admit_all_hook(switch, cache, gateway=True)
        if role is Role.CORE:
            return self._core_hook(switch, cache)
        return self._spine_hook(
            switch, cache,
            promotes=role is Role.SPINE and config.enable_promotion)

    def _tor_hook(self, switch: Switch, cache) -> SwitchHook:
        """ToR: learn the *source* of everything that passes."""
        spillover = self.config.enable_spillover
        keys, values, salt, sets = _owner_lines(cache)
        record_hit = self._collector.record_hit
        switch_id, layer = switch.switch_id, switch.layer

        def hook(packet: Packet, ingress) -> bool:
            kind = packet.kind
            if kind > _ACK:
                return self._on_control(switch, packet)
            if (
                ingress is not None
                and ingress._src_is_host
                and not packet._misdelivery_tag
                and (packet.outer_src != ingress.src.pip
                     or packet._carried_mapping is not None)
            ):
                self._tag_misdelivered(switch, packet)
            if packet._spill_entry is not None and spillover:
                self._try_pickup_spill(packet, cache, False)
            if not packet.resolved:
                if packet._misdelivery_tag:
                    self.try_resolve(switch, packet, cache)
                else:
                    pip = cache.lookup(packet.dst_vip)
                    if pip is not None:
                        packet.outer_dst = pip
                        packet.resolved = True
                        packet.hit_switch = switch_id
                        record_hit(layer, kind is _DATA and packet.seq == 0)
            vip = packet.src_vip
            slot = (((vip ^ salt) * HASH_MIX) & 0xFFFFFFFF) % sets
            if keys[slot] == vip:
                values[slot] = packet.outer_src
            else:
                evicted = cache.insert(vip, packet.outer_src).evicted
                if evicted is not None and spillover:
                    packet.spill_entry = evicted
            return True
        return hook

    def _admit_all_hook(self, switch: Switch, cache,
                        gateway: bool) -> SwitchHook:
        """Gateway ToR: learn every resolved destination, and tell the
        sender's ToR about it with probability ``p_learn``.  With
        ``role_aware`` off (the ablation) every switch runs this minus
        the announcement, plus the core's promotion pickup."""
        config = self.config
        spillover = config.enable_spillover
        announces = gateway and config.enable_learning_packets
        is_tor = switch.layer is Layer.TOR
        keys, values, salt, sets = _owner_lines(cache)
        record_hit = self._collector.record_hit
        switch_id, layer = switch.switch_id, switch.layer

        def hook(packet: Packet, ingress) -> bool:
            kind = packet.kind
            if kind > _ACK:
                return self._on_control(switch, packet)
            if (
                ingress is not None
                and ingress._src_is_host
                and not packet._misdelivery_tag
                and is_tor
                and (packet.outer_src != ingress.src.pip
                     or packet._carried_mapping is not None)
            ):
                self._tag_misdelivered(switch, packet)
            if packet._spill_entry is not None and spillover:
                self._try_pickup_spill(packet, cache, False)
            if packet._promote_entry is not None and not gateway:
                self._admit_promotion(packet, cache)
            if not packet.resolved:
                if packet._misdelivery_tag:
                    self.try_resolve(switch, packet, cache)
                else:
                    pip = cache.lookup(packet.dst_vip)
                    if pip is not None:
                        packet.outer_dst = pip
                        packet.resolved = True
                        packet.hit_switch = switch_id
                        record_hit(layer, kind is _DATA and packet.seq == 0)
            if packet.resolved:
                vip = packet.dst_vip
                pip = packet.outer_dst
                slot = (((vip ^ salt) * HASH_MIX) & 0xFFFFFFFF) % sets
                if keys[slot] == vip:
                    values[slot] = pip
                else:
                    evicted = cache.insert(vip, pip).evicted
                    if evicted is not None and spillover:
                        packet.spill_entry = evicted
                if announces:
                    self._maybe_send_learning_packet(switch, packet)
            return True
        return hook

    def _spine_hook(self, switch: Switch, cache, promotes: bool) -> SwitchHook:
        """Spine and gateway spine: conservative destination learning
        (never evict a hot line).  A regular spine also promotes: a hit
        on an already-hot line, for a packet leaving the pod, rides up
        to the core."""
        spillover = self.config.enable_spillover
        keys, values, salt, sets = _owner_lines(cache)
        record_hit = self._collector.record_hit
        switch_id, layer, pod = switch.switch_id, switch.layer, switch.pod

        def hook(packet: Packet, ingress) -> bool:
            kind = packet.kind
            if kind > _ACK:
                return self._on_control(switch, packet)
            if packet._spill_entry is not None and spillover:
                self._try_pickup_spill(packet, cache, True)
            if not packet.resolved:
                vip = packet.dst_vip
                hot = promotes and cache.access_bit(vip) == 1
                if packet._misdelivery_tag:
                    self.try_resolve(switch, packet, cache)
                else:
                    pip = cache.lookup(vip)
                    if pip is not None:
                        packet.outer_dst = pip
                        packet.resolved = True
                        packet.hit_switch = switch_id
                        record_hit(layer, kind is _DATA and packet.seq == 0)
                if hot and packet.resolved \
                        and pip_pod(packet.outer_dst) != pod:
                    packet.promote_entry = (vip, packet.outer_dst)
                    self.promotions_sent += 1
            if packet.resolved:
                vip = packet.dst_vip
                pip = packet.outer_dst
                slot = (((vip ^ salt) * HASH_MIX) & 0xFFFFFFFF) % sets
                if keys[slot] == vip:
                    values[slot] = pip
                else:
                    evicted = cache.insert(vip, pip, True).evicted
                    if evicted is not None and spillover:
                        packet.spill_entry = evicted
            return True
        return hook

    def _core_hook(self, switch: Switch, cache) -> SwitchHook:
        """Core: learns from promotions only, into cold lines."""
        record_hit = self._collector.record_hit
        switch_id, layer = switch.switch_id, switch.layer

        def hook(packet: Packet, ingress) -> bool:
            kind = packet.kind
            if kind > _ACK:
                return self._on_control(switch, packet)
            if packet._promote_entry is not None:
                self._admit_promotion(packet, cache)
            if not packet.resolved:
                if packet._misdelivery_tag:
                    self.try_resolve(switch, packet, cache)
                else:
                    pip = cache.lookup(packet.dst_vip)
                    if pip is not None:
                        packet.outer_dst = pip
                        packet.resolved = True
                        packet.hit_switch = switch_id
                        record_hit(layer, kind is _DATA and packet.seq == 0)
            return True
        return hook

    def _on_control(self, switch: Switch, packet: Packet) -> bool:
        """Learning and invalidation packets, the same at every role."""
        if packet.kind is _LEARNING:
            return self._on_learning_packet(switch, packet)
        self._apply_invalidation(switch, packet)
        return True

    # ------------------------------------------------------------------
    # learning policies
    # ------------------------------------------------------------------
    def _try_pickup_spill(self, packet: Packet, cache,
                          conservative: bool) -> None:
        """A non-core switch attempts to re-admit a spilled entry;
        spines do so conservatively (Table 1)."""
        vip, pip = packet._spill_entry
        result = cache.insert(vip, pip, only_if_clear=conservative)
        if result.admitted:
            packet.spill_entry = result.evicted
            self.spillovers_reinserted += 1
            self._collector.spillover_inserts += 1

    def _admit_promotion(self, packet: Packet, cache) -> None:
        """Core switches admit promoted entries if the line is cold."""
        vip, pip = packet._promote_entry
        result = cache.insert(vip, pip, only_if_clear=True)
        packet.promote_entry = None
        if result.admitted:
            self.promotions_admitted += 1
            self._collector.promotions += 1

    # ------------------------------------------------------------------
    # learning packets (§3.2.2)
    # ------------------------------------------------------------------
    def _maybe_send_learning_packet(self, switch: Switch, packet: Packet) -> None:
        if not self.config.enable_learning_packets:
            return
        self.rng_draws += 1
        pos = self._learn_pos
        buf = self._learn_buf
        if pos == len(buf):
            buf = self._refill_learning(_LEARN_BLOCK)
            pos = 0
        self._learn_pos = pos + 1
        if buf[pos] >= self.config.p_learn:
            return
        sender_pip = packet.outer_src
        if sender_pip in self._gateway_pips or sender_pip < 0:
            return
        assert self.network is not None
        target_pod, target_rack = pip_pod(sender_pip), pip_rack(sender_pip)
        mapping = (packet.dst_vip, packet.outer_dst)
        target_tor = self.network.fabric.tors.get((target_pod, target_rack))
        if target_tor is None:
            return
        if target_tor is switch:
            self._install_at_tor(switch, mapping)
            return
        learning = Packet(
            PacketKind.LEARNING,
            flow_id=self._next_control_flow(),
            seq=0,
            payload_bytes=0,
            src_vip=packet.dst_vip,
            dst_vip=packet.dst_vip,
            outer_src=sender_pip,
            outer_dst=sender_pip,
            created_at=self.network.engine.now,
        )
        learning.carried_mapping = mapping
        self.learning_packets_sent += 1
        self.network.collector.learning_packets += 1
        switch.forward(learning)

    def replay_learning_draw(self, switch: Switch, template) -> None:
        """Repeat one learning-RNG draw for an analytic packet.

        ``template`` carries the only packet fields the draw path reads
        (``outer_src``, ``dst_vip``, ``outer_dst``) — identical for every
        packet of a warm flow, which is what makes replay exact.  A draw
        that triggers emits the real learning traffic (or performs the
        real ToR install) through the normal code paths.  The fluid
        engine calls this only for draws
        :meth:`skip_clean_learning_draws` left unread; the others it
        consumes in bulk.
        """
        self._maybe_send_learning_packet(switch, template)

    def skip_clean_learning_draws(self, count: int) -> int:
        """Consume the next ``count`` draws, stopping at a triggering one.

        Looks ahead in the buffered stream and consumes, in one step,
        the draws up to (not including) the first that would send a
        learning packet; returns how many that was — ``count`` when
        none of them would.  Consumes nothing and returns 0 while
        learning packets are off: no draw reads the stream then.
        """
        if not self.config.enable_learning_packets:
            return 0
        pos = self._learn_pos
        if len(self._learn_buf) - pos < count:
            self._refill_learning(max(count, _LEARN_BLOCK))
            pos = 0
        hits = self._learn_hits
        at = bisect_left(hits, pos)
        if at < len(hits) and hits[at] < pos + count:
            count = hits[at] - pos
        self._learn_pos = pos + count
        self.rng_draws += count
        return count

    def _refill_learning(self, size: int) -> list[float]:
        """Drop the read values, buffer ``size`` more, and note where the
        new ones trigger (``p_learn`` is frozen) for the look-ahead."""
        pos = self._learn_pos
        unread = self._learn_buf[pos:]
        kept = len(unread)
        block = self._learn_rng.random(size)
        triggering = (block < self.config.p_learn).nonzero()[0].tolist()
        self._learn_hits = ([at - pos for at in self._learn_hits if at >= pos]
                            + [at + kept for at in triggering])
        self._learn_buf = unread + block.tolist()
        self._learn_pos = 0
        return self._learn_buf

    def _on_learning_packet(self, switch: Switch, packet: Packet) -> bool:
        """ToRs absorb learning packets addressed to their rack."""
        if switch.is_local_rack(packet.outer_dst):
            if packet.carried_mapping is not None:
                self._install_at_tor(switch, packet.carried_mapping)
            return False
        return True

    def _install_at_tor(self, switch: Switch, mapping: tuple[int, int]) -> None:
        cache = self.cache_of(switch)
        if cache is None:
            return
        cache.insert(mapping[0], mapping[1])

    # ------------------------------------------------------------------
    # invalidation (§3.3)
    # ------------------------------------------------------------------
    def _tag_misdelivered(self, switch: Switch, packet: Packet) -> None:
        packet.misdelivery_tag = True
        if not self.config.enable_invalidation:
            return
        if packet.hit_switch is None or packet.carried_mapping is None:
            return
        if packet.hit_switch == switch.switch_id:
            return  # The tagged packet itself will fix the local cache.
        if self.config.enable_timestamp_vector and not self._timestamp_allows(
                switch.switch_id, packet.hit_switch):
            return
        self._send_invalidation(switch, packet.hit_switch, packet.carried_mapping)

    def _timestamp_allows(self, tor_id: int, target_id: int) -> bool:
        """Timestamp-vector rate limiting: one packet per RTT per target."""
        assert self.network is not None
        now = self.network.engine.now
        vector = self._timestamp_vectors.setdefault(tor_id, {})
        last = vector.get(target_id)
        if last is not None and now - last < self.config.invalidation_gap_ns:
            return False
        vector[target_id] = now
        return True

    def _send_invalidation(self, tor: Switch, target_id: int,
                           stale: tuple[int, int]) -> None:
        assert self.network is not None
        fabric = self.network.fabric
        target = fabric.switch_by_id.get(target_id)
        if target is None:
            return
        if target is tor:
            return
        flow_id = self._next_control_flow()
        route = fabric.path_from_tor(tor, target, key=flow_id)
        if not route:
            return
        packet = Packet(
            PacketKind.INVALIDATION,
            flow_id=flow_id,
            seq=0,
            payload_bytes=0,
            src_vip=stale[0],
            dst_vip=stale[0],
            outer_src=-1,
            outer_dst=-1,
            created_at=self.network.engine.now,
        )
        packet.carried_mapping = stale
        packet.target_switch = target_id
        packet.route_path = route
        packet.route_index = 0
        self.invalidation_packets_sent += 1
        self.network.collector.invalidation_packets += 1
        if not route[0].transmit(packet):
            tor.stats.drops += 1

    def _apply_invalidation(self, switch: Switch, packet: Packet) -> None:
        """Every switch on an invalidation's path invalidates the entry."""
        if packet.carried_mapping is None:
            return
        cache = self.cache_of(switch)
        if cache is None:
            return
        vip, stale_pip = packet.carried_mapping
        cache.invalidate(vip, stale_pip)
