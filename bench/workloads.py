"""The seven benchmark workloads.

Each workload is one closed call into the simulator: ``flows(seed)``
generates the inputs, ``build`` makes the thing the call runs on (a
network; a cold run cache for the sweep) and ``run`` is the measured
call.  The simulator only ever receives the generated flows.

Sizes are chosen so one measured call takes roughly 1-1.5 s on the
2-vCPU box this was built on (see README.md, "Sizing and noise"): the
driver's time cap leaves about 20 s per invocation, which has to hold
a warm-up and at least seven timed repeats.  ``scale`` shrinks every
size for ``--quick``; simulated results differ between scales, so
``expected.json`` pins both.

Work is held constant across seeds: who sends how much to whom is
fixed per workload, and the seed draws when flows start and seeds the
network (ECMP and gateway salts, cache salts, the learning RNG).  The
driver compares runs of *different* seeds, and with fully seeded traffic
the simulated work itself swings 8-40 % (heavy-tailed sizes, random
pairs), which would bury a 10 % regression.
"""

from __future__ import annotations

import dataclasses
import statistics
import tempfile
from pathlib import Path

import numpy as np

from bench.layers import network_counts
from repro.experiments.runcache import RunCache
from repro.experiments.runner import RunResult, build_network, make_scheme, run_flows
from repro.experiments.sweeps import cache_size_sweep
from repro.net.addresses import pip_pod, pip_rack
from repro.net.topology import FatTreeSpec
from repro.perf import timed_call
from repro.sim.engine import msec, usec
from repro.sim.randomness import RandomStreams
from repro.traces import incast
from repro.traces.spec import TraceSpec
from repro.transport.flow import FlowSpec
from repro.transport.reliable import TransportConfig

#: The k=32-class fabric of ``benchmarks/test_scale_hybrid.py``.
FT32 = FatTreeSpec(pods=32, racks_per_pod=16, servers_per_rack=16,
                   spines_per_pod=16, num_cores=256,
                   gateway_pods=tuple(range(0, 32, 2)),
                   gateways_per_pod=4)


#: The hadoop trace every seed takes its flows from: of seeds 1-10 it
#: has the median flow count for a packet budget.
SHAPE_SEED = 6


def hadoop_shape(num_vms: int, packet_budget: int) -> list[FlowSpec]:
    """Hadoop flows worth exactly ``packet_budget`` data packets, the same for every seed.

    The size distribution is heavy-tailed, so with everything seeded a
    fixed flow count is 40k-65k packets and a fixed packet count
    1 600-3 000 flows, and even with fixed sizes the event count swings
    8 % with where the few elephants land; host time follows all three.
    So who sends how much to whom is one fixed draw of the generator,
    and a seed only re-times it (:func:`retimed`).

    The draw is ``TraceSpec("hadoop", SHAPE_SEED)`` in arrival order,
    leaving out any flow that would overshoot the budget (most flows
    are one packet, so the budget is met exactly).
    """
    mss = TransportConfig().mss_bytes
    shape = []
    room = packet_budget
    for flow in TraceSpec.create("hadoop", SHAPE_SEED, num_vms=num_vms,
                                 num_flows=max(256, packet_budget // 4)).materialize():
        packets = -(-flow.size_bytes // mss)
        if packets <= room:
            shape.append(flow)
            room -= packets
            if room == 0:
                return shape
    raise RuntimeError(f"hadoop trace ended {room} packets short of {packet_budget}")


def retimed(shape: list[FlowSpec], seed: int, num_vms: int) -> list[FlowSpec]:
    """``shape`` started at the Poisson arrival times of ``TraceSpec("hadoop", seed)``."""
    arrivals = TraceSpec.create("hadoop", seed, num_vms=num_vms,
                                num_flows=len(shape)).materialize()
    return [dataclasses.replace(flow, start_ns=arrival.start_ns)
            for flow, arrival in zip(shape, arrivals)]


def pair_flows(seed: int, pairs: int, size_bytes: int) -> list[FlowSpec]:
    """Long same-pair reliable flows (VM 2i -> 2i+1), about 1 us apart.

    The seed only jitters the start times (and seeds the network), so
    every seed simulates the same amount of work.
    """
    jitter = RandomStreams(seed).stream("bench-pairs").integers(0, 1000, size=pairs)
    return [FlowSpec(src_vip=2 * i, dst_vip=2 * i + 1, size_bytes=size_bytes,
                     start_ns=i * 1000 + int(jitter[i])) for i in range(pairs)]


class Workload:
    """One workload; subclasses fill in the inputs.

    Attributes:
        scheme_name / cache_ratio: the scheme and its slots, as
            ``make_scheme`` and the run cache address them (caches given
            in slots are ``cache_ratio = slots / num_vms``).
    """

    name = ""
    spec = FatTreeSpec()
    num_vms = 0
    scheme_name = "SwitchV2P"
    cache_ratio = 0.0
    fidelity = "packet"
    transport: TransportConfig | None = None
    horizon_ns: int | None = None

    def __init__(self, scale: float, scratch: Path) -> None:
        self.scale = scale
        self.scratch = scratch

    def scaled(self, value: int) -> int:
        return max(1, round(value * self.scale))

    def flows(self, seed: int) -> list[FlowSpec]:
        raise NotImplementedError

    def build(self, seed: int):
        scheme = make_scheme(self.scheme_name, self.num_vms, self.cache_ratio)
        return build_network(self.spec, scheme, self.num_vms, seed, fidelity=self.fidelity)

    def run(self, target, flows: list[FlowSpec], seed: int, perf,
            workers: int) -> list[RunResult]:
        """The measured call; returns every simulation's result."""
        return [run_flows(target, flows, self.transport, self.horizon_ns,
                          trace_name=self.name, cache_ratio=self.cache_ratio,
                          perf=perf)]

    def counts(self, target, flows: list[FlowSpec], seed: int) -> dict[str, float]:
        """Per-layer counts readable from ``target`` after the traced run."""
        return network_counts(target)


class HadoopTrace(Workload):
    """Workloads on the re-timed hadoop trace; ``packet_budget`` sizes them."""

    packet_budget = 0

    def __init__(self, scale, scratch):
        super().__init__(scale, scratch)
        self.shape = hadoop_shape(self.num_vms, self.scaled(self.packet_budget))

    def flows(self, seed):
        return retimed(self.shape, seed, self.num_vms)


class HadoopV2P(HadoopTrace):
    """The paper's headline Fig. 5a shape: cache, protocol, switch, engine and
    reliable transport are all busy; hit rate ~0.85."""

    name = "hadoop-v2p"
    num_vms = 640
    cache_ratio = 4.0
    packet_budget = 20_000


class HadoopNoCache(HadoopV2P):
    """The same flows with no caches: every packet detours through a gateway.

    Bypasses ``cache`` and ``core.protocol`` entirely, so a cache or
    protocol change must not move it; an engine, link, switch or
    gateway change moves it most.
    """

    name = "hadoop-nocache"
    scheme_name = "NoCache"


class MigrateIncast(Workload):
    """Paper 5.2 incast into VIP 0, which migrates to another rack every 200 us.

    Uses the cache/protocol layer the other way round from the hadoop
    workloads: invalidation packets, misdelivery tags, re-forwarding
    and spillover instead of lookup hits, over UDP instead of the
    reliable transport.  A lookup win that taxes invalidate shows here.
    """

    name = "migrate-incast"
    senders = 32
    num_vms = senders + 2
    slots_per_switch = 32
    packet_bytes = 1000
    packets_per_sender = 1400
    #: Each sender paces 250 packets per millisecond, at every scale.
    packets_per_ms = 250
    #: Keep >= 200 us: at 100 us the protocol melts down (hit rate 0,
    #: 40x the misdeliveries), which is a correctness question, not a
    #: benchmark input.
    migrate_every_ns = usec(200)
    transport = TransportConfig(mss_bytes=packet_bytes)

    def __init__(self, scale, scratch):
        super().__init__(scale, scratch)
        packets = self.scaled(self.packets_per_sender)
        self.params = incast.IncastTraceParams(
            num_senders=self.senders, packets_per_sender=packets,
            packet_bytes=self.packet_bytes,
            duration_ns=msec(packets / self.packets_per_ms))
        self.horizon_ns = self.params.duration_ns + msec(2)
        self.cache_ratio = self.slots_per_switch * self.spec.num_switches / self.num_vms

    def flows(self, seed):
        rng = RandomStreams(seed).stream("incast")
        return incast.generate(self.params, rng, list(range(1, self.senders + 1)))

    def build(self, seed):
        network = super().build(seed)
        # One landing host per rack; the destination hops to the next
        # rack at every step, so each migration crosses racks.
        landing = {}
        for host in network.hosts:
            landing.setdefault((pip_pod(host.pip), pip_rack(host.pip)), host)
        hosts = list(landing.values())
        vip = self.params.destination_vip
        at = self.migrate_every_ns
        step = 1
        while at < self.params.duration_ns:
            network.engine.schedule(at, network.migrate, vip, hosts[step % len(hosts)])
            at += self.migrate_every_ns
            step += 1
        return network


class SteadyHybrid(Workload):
    """Long warm same-pair flows under hybrid fidelity.

    The fluid fast path does the work (about half the packets are
    advanced analytically) and the packet-path layers do almost
    nothing, so an engine or switch win must not show here and a
    ``sim/fluid.py`` walk/commit change must.
    """

    name = "steady-hybrid"
    num_vms = 128
    slots = 16384
    pairs = 60
    flow_bytes = 45_000_000
    fidelity = "hybrid"
    horizon_ns = msec(20_000)

    def __init__(self, scale, scratch):
        super().__init__(scale, scratch)
        self.cache_ratio = self.slots / self.num_vms

    def flows(self, seed):
        return pair_flows(seed, self.pairs, self.scaled(self.flow_bytes))


class ChurnHybrid(SteadyHybrid):
    """Thrashing 512-slot caches under hybrid fidelity.

    Conflict evictions keep escalating flows back to packet level, so
    this prices adoption/escalation overhead and cache insert/evict
    rather than fluid commit.
    """

    name = "churn-hybrid"
    num_vms = 64
    slots = 512
    pairs = 24
    flow_bytes = 2_200_000
    horizon_ns = None

    def build(self, seed):
        # The cache salts decide which entries conflict and so how often
        # flows escalate: a seeded network moves the event count by 10 %.
        return super().build(7)


class K32Scale(Workload):
    """The k=32 fabric with 100 000 VMs and random-pair 1.5 MB flows, hybrid.

    The only workload where set-up time and memory are large; mixed
    fluid/packet, with lazy pod wiring paid inside the run.
    """

    name = "k32-scale"
    spec = FT32
    num_vms = 100_000
    slots = 16384
    #: The pairs of ``benchmarks/test_scale_hybrid.py``; with seeded
    #: pairs the event count spreads 6-14 % over ten seeds.
    pairs_seed = 7
    num_flows = 56
    flow_bytes = 1_500_000
    fidelity = "hybrid"
    horizon_ns = msec(2000)
    cache_ratio = slots / num_vms

    def flows(self, seed):
        count = self.scaled(self.num_flows)
        pairs = np.random.default_rng(self.pairs_seed)
        starts = RandomStreams(seed).stream("bench-starts").integers(0, msec(5), size=count)
        flows = []
        for start in starts:
            src, dst = pairs.choice(self.num_vms, size=2, replace=False)
            flows.append(FlowSpec(src_vip=int(src), dst_vip=int(dst),
                                  size_bytes=self.flow_bytes, start_ns=int(start)))
        return flows


class SweepFig5(HadoopTrace):
    """The user-facing reproduce-a-figure path.

    ``cache_size_sweep`` over 3 ratios x (SwitchV2P, GwCache) plus the
    NoCache reference: 7 simulations through ``experiments.parallel``
    with ``min(2, nproc)`` workers and a cold run cache.
    """

    name = "sweep-fig5"
    num_vms = 320
    packet_budget = 5_000
    ratios = (0.5, 4.0, 32.0)
    schemes = ("SwitchV2P", "GwCache", "NoCache")
    scheme_name = "NoCache"
    warm_replays = 20

    def build(self, seed):
        """A fresh, cold run cache: every grid point is simulated."""
        return RunCache(tempfile.mkdtemp(prefix="runcache-", dir=self.scratch))

    def run(self, target, flows, seed, perf, workers):
        rows = cache_size_sweep(self.spec, flows, self.num_vms, self.ratios,
                                self.schemes, seed=seed, trace_name=self.name,
                                workers=workers, cache=target, perf=perf)
        # NoCache rows repeat one simulation; count each result once.
        unique = {id(row.result): row.result for row in rows}
        return list(unique.values())

    def counts(self, target, flows, seed):
        """The cold run's cache traffic, then the primed cache replayed.

        The sweep keeps no network, so the network-side counts stay 0.
        """
        cold = {"runcache.hits": target.stats.hits, "runcache.misses": target.stats.misses}
        replays = [timed_call(self.run, target, flows, seed, None, 0)[1]
                   for _ in range(self.warm_replays)]
        return {**cold, "runcache.warm_replay_s": statistics.median(replays) / 1e9}


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (HadoopV2P, HadoopNoCache, MigrateIncast, SteadyHybrid,
                              ChurnHybrid, K32Scale, SweepFig5)
}
