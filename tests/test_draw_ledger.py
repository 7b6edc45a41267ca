"""The buffered learning stream and the fluid engine's run-length draw ledger.

Two layers keep hybrid runs on the same ``switchv2p-learning`` stream as
packet mode (docs/simulator.md "Hybrid fidelity"):

* ``SwitchV2P`` reads the stream through a block-refilled buffer with a
  look-ahead that consumes a clean stretch in one call
  (``skip_clean_learning_draws``);
* ``repro.sim.fluid._DrawLedger`` keeps one record per armed round and
  replays the draws of all flows in global ``(due, arm order, packet,
  site)`` order, consuming stretches of draws that trigger nothing in
  one step.

The ledger is differential-tested against :class:`_NaiveDraws`, a
deliberately slow reference that expands every round into one heap
entry per draw and takes one scalar ``Generator.random()`` per entry.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from heapq import heappop, heappush

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.core import SwitchV2P
from repro.core.config import SwitchV2PConfig
from repro.core.protocol import _LEARN_BLOCK
from repro.experiments.runner import build_network, run_flows
from repro.net.topology import FatTreeSpec
from repro.sim.fluid import _DrawLedger
from repro.transport.flow import FlowSpec

from test_hybrid_fidelity import _cache_metrics, _steady_flows


class _Template:
    """A draw site's packet stand-in that notices a triggering draw.

    ``_maybe_send_learning_packet`` reads ``outer_src`` only after the
    ``p_learn`` gate let the draw through; the negative address then
    ends the call before it needs a network.
    """

    def __init__(self, site: int) -> None:
        self.site = site
        self.dst_vip = site
        self.outer_dst = 0
        self.fired = 0

    @property
    def outer_src(self) -> int:
        self.fired += 1
        return -1


def _bare_scheme(p_learn: float, seed: int, cls=SwitchV2P,
                 **config) -> SwitchV2P:
    """A SwitchV2P bound to a learning stream but to no network."""
    scheme = cls(0, config=SwitchV2PConfig(p_learn=p_learn, **config))
    scheme._learn_rng = np.random.default_rng(seed)
    scheme._gateway_pips = frozenset()
    return scheme


# ----------------------------------------------------------------------
# buffered learning stream
# ----------------------------------------------------------------------
def test_block_draw_equals_scalar_draws():
    """The numpy guarantee the buffer rests on: ``random(n)`` is ``n``
    consecutive scalar draws, and the generator ends in the same state."""
    block_rng = np.random.default_rng(42)
    scalar_rng = np.random.default_rng(42)
    block = block_rng.random(3 * _LEARN_BLOCK + 7).tolist()
    assert block == [scalar_rng.random() for _ in range(len(block))]
    assert block_rng.random() == scalar_rng.random()


def test_buffered_draws_cross_refill_boundaries():
    """Draw by draw, the scheme sees the scalar sequence — across two
    refills, at the paper's ``p_learn`` and at one that fires often."""
    for p_learn in (0.005, 0.3):
        scheme = _bare_scheme(p_learn, seed=9)
        scalar = np.random.default_rng(9)
        template = _Template(0)
        for index in range(2 * _LEARN_BLOCK + 50):
            fired_before = template.fired
            scheme._maybe_send_learning_packet(None, template)
            fired = template.fired - fired_before
            assert fired == (scalar.random() < p_learn), index
        assert scheme.rng_draws == 2 * _LEARN_BLOCK + 50


def test_look_ahead_consumes_nothing():
    """...from the first triggering value on: a skip stops short of it,
    however far past the buffered block it was asked to look."""
    scheme = _bare_scheme(0.05, seed=3)
    expected = np.random.default_rng(3).random(4 * _LEARN_BLOCK).tolist()
    first_hit = next(i for i, v in enumerate(expected) if v < 0.05)
    assert first_hit > 1
    assert scheme.skip_clean_learning_draws(1) == 1
    assert scheme.skip_clean_learning_draws(3 * _LEARN_BLOCK) == first_hit - 1
    for count in (1, first_hit, 3 * _LEARN_BLOCK):
        assert scheme.skip_clean_learning_draws(count) == 0
        assert scheme.rng_draws == first_hit
    template = _Template(0)
    scheme._maybe_send_learning_packet(None, template)
    assert template.fired == 1
    # A stretch asked for exactly is consumed exactly.
    rest = expected[first_hit + 1:]
    next_hit = next(i for i, v in enumerate(rest) if v < 0.05)
    assert scheme.skip_clean_learning_draws(next_hit) == next_hit
    assert scheme.rng_draws == first_hit + 1 + next_hit
    scheme._maybe_send_learning_packet(None, template)
    assert template.fired == 2


def test_look_ahead_defers_to_per_draw_replay():
    """With learning packets off a draw reads no stream: nothing may be
    skipped."""
    disabled = _bare_scheme(0.005, seed=1, enable_learning_packets=False)
    assert disabled.skip_clean_learning_draws(10) == 0
    disabled._maybe_send_learning_packet(None, _Template(0))
    assert disabled.rng_draws == 0


def _clean_then_skip(scheme, count):
    """The look-ahead and the consume the one call replaced, as they
    were: ``clean_learning_draws(count)`` then ``skip_learning_draws``
    of its answer."""
    if not scheme.config.enable_learning_packets:
        clean = 0
    else:
        pos = scheme._learn_pos
        if len(scheme._learn_buf) - pos < count:
            scheme._refill_learning(max(count, _LEARN_BLOCK))
            pos = 0
        hits = scheme._learn_hits
        at = bisect_left(hits, pos)
        clean = (count if at == len(hits) or hits[at] >= pos + count
                 else hits[at] - pos)
    scheme._learn_pos += clean
    scheme.rng_draws += clean
    return clean


@settings(max_examples=120, deadline=None, derandomize=True)
@given(p_learn=st.sampled_from([0.0, 0.005, 0.2, 1.0]),
       learning=st.booleans(), seed=st.integers(0, 2**32 - 1),
       steps=st.lists(st.tuples(st.sampled_from(["draw", "skip"]),
                                st.integers(1, 3 * _LEARN_BLOCK)),
                      min_size=1, max_size=12))
def test_merged_skip_equals_clean_then_skip(p_learn, learning, seed, steps):
    """Step for step, the merged call and the two it replaced answer
    alike and leave the stream alike: same ``rng_draws``, same unread
    values, same generator state, and the same values for every later
    draw — learning on and off."""
    merged = _bare_scheme(p_learn, seed, enable_learning_packets=learning)
    split = _bare_scheme(p_learn, seed, enable_learning_packets=learning)
    for op, count in steps:
        if op == "draw":
            for scheme in (merged, split):
                for _ in range(count % 40):
                    scheme._maybe_send_learning_packet(None, _Template(0))
        else:
            assert (merged.skip_clean_learning_draws(count)
                    == _clean_then_skip(split, count))
        assert merged.rng_draws == split.rng_draws
        assert (merged._learn_buf[merged._learn_pos:]
                == split._learn_buf[split._learn_pos:])
        assert (merged._learn_rng.bit_generator.state
                == split._learn_rng.bit_generator.state)
    later = []
    for scheme in (merged, split):
        template = _Template(0)
        fired = []
        for _ in range(2 * _LEARN_BLOCK + 3):
            before = template.fired
            scheme._maybe_send_learning_packet(None, template)
            fired.append(template.fired - before)
        later.append((scheme.rng_draws, fired))
    assert later[0] == later[1]


#: Draw / look-ahead / skip counts: small ones, ones that end within
#: two values of a block boundary, and ones longer than a block.
_COUNTS = st.one_of(st.integers(1, 40),
                    st.integers(_LEARN_BLOCK - 2, _LEARN_BLOCK + 2),
                    st.integers(1, 3 * _LEARN_BLOCK))
_STEPS = st.lists(
    st.tuples(st.sampled_from(["draw", "skip"]), _COUNTS),
    min_size=4, max_size=24)
_CASES = given(p_learn=st.sampled_from([0.0, 0.005, 0.2, 1.0]),
               seed=st.integers(0, 2**32 - 1), steps=_STEPS)


def _check_stream_against_scalar_reads(cls, p_learn, seed, steps):
    """Interleave live draws and skips on a ``cls`` scheme and on a
    reference that takes one scalar ``random()`` per value: same
    triggering stream indices, same skip answers, same
    ``rng_draws``, and a generator that has handed out exactly the
    values read plus the ones still buffered."""
    scheme = _bare_scheme(p_learn, seed, cls=cls)
    scalar = np.random.default_rng(seed)
    stream: list[float] = []

    def clean_ahead(read, count):
        while len(stream) < read + count:
            stream.append(scalar.random())
        return next((i for i in range(count) if stream[read + i] < p_learn),
                    count)

    template = _Template(0)
    read = 0
    for op, count in steps:
        if op == "draw":
            for _ in range(count):
                fired = template.fired
                scheme._maybe_send_learning_packet(None, template)
                assert template.fired - fired == (clean_ahead(read, 1) == 0), read
                read += 1
        else:
            clean = scheme.skip_clean_learning_draws(count)
            assert clean == clean_ahead(read, count), (read, count)
            read += clean
        assert scheme.rng_draws == read
    buffered = len(scheme._learn_buf) - scheme._learn_pos
    handed_out = np.random.default_rng(seed)
    handed_out.random(read + buffered)
    assert (scheme._learn_rng.bit_generator.state
            == handed_out.bit_generator.state)


@settings(max_examples=120, deadline=None, derandomize=True)
@_CASES
def test_stream_equals_scalar_reads_under_any_interleaving(p_learn, seed, steps):
    _check_stream_against_scalar_reads(SwitchV2P, p_learn, seed, steps)


def test_stream_property_catches_an_off_by_one_at_the_block_boundary():
    """The look-ahead works from the positions of the triggering values
    of each block; a refill that loses the one in the block's first
    place is a bug the property above must not let through."""
    class Seeded(SwitchV2P):
        def _refill_learning(self, size):
            buf = super()._refill_learning(size)
            self._learn_hits = [at for at in self._learn_hits if at]
            return buf

    # Same cases; finding the failure is enough, shrinking it is not needed.
    @settings(max_examples=120, deadline=None, derandomize=True,
              phases=[Phase.generate])
    @_CASES
    def check(p_learn, seed, steps):
        _check_stream_against_scalar_reads(Seeded, p_learn, seed, steps)

    with pytest.raises(AssertionError):
        check()


def _learning_trace(scheme, seed):
    """Run a gateway-heavy workload; return what the learning stream did."""
    network = build_network(FatTreeSpec(), scheme, 64, seed=seed)
    result = run_flows(network, _steady_flows(n_pairs=12, size=150_000),
                       trace_name="steady", keep_network=True)
    return (scheme.rng_draws, scheme.learning_packets_sent,
            _cache_metrics(result))


@pytest.mark.parametrize("make", [
    lambda: SwitchV2P(16384, config=SwitchV2PConfig(p_learn=0.2)),
], ids=["SwitchV2P"])
def test_reused_scheme_never_serves_previous_networks_draws(make):
    """Binding a scheme to a second network drops the values buffered
    (and looked ahead) from the first network's stream."""
    fresh = [_learning_trace(make(), seed) for seed in (5, 6)]
    assert fresh[0][0] > 0 and fresh[0] != fresh[1]
    reused = make()
    first = _learning_trace(reused, 5)
    # Leave look-ahead values behind, as an interrupted hybrid run would.
    reused.skip_clean_learning_draws(2 * _LEARN_BLOCK)
    draws_before = reused.rng_draws
    second = _learning_trace(reused, 6)
    assert first == fresh[0]
    assert second[0] - draws_before == fresh[1][0]
    assert second[2] == fresh[1][2]


# ----------------------------------------------------------------------
# differential test of the ledger
# ----------------------------------------------------------------------
class _NaiveDraws:
    """Reference: one heap entry and one scalar RNG call per draw.

    Entries are ``(due, seq, run id, site, token)`` with a globally
    increasing ``seq``; a token is ``[alive, cutoff]`` and a dead
    round's entries still replay when due by its cutoff.  Every round
    boundary drains; a live draw reads the next value in place.
    """

    def __init__(self, p_learn: float, seed: int, on_fire) -> None:
        self.p_learn = p_learn
        self.rng = np.random.default_rng(seed)
        self.on_fire = on_fire
        self.heap: list = []
        self.seq = 0
        self.draws = 0
        self.log: list[tuple[int, int, bool]] = []
        self.consumed: list[int] = []
        self.draining = False

    def arm(self, t0, interval, first, end, sites):
        token = [True, -1]
        run_id = len(self.consumed)
        self.consumed.append(0)
        for k in range(first, end):
            for template in sites:
                self.seq += 1
                heappush(self.heap, (t0 + k * interval, self.seq, run_id,
                                     template.site, token))
        return token

    def kill(self, token, cutoff):
        token[0] = False
        token[1] = cutoff

    def drain(self, now):
        if self.draining:
            return
        self.draining = True
        try:
            while self.heap and self.heap[0][0] <= now:
                due, _seq, run_id, site, token = heappop(self.heap)
                if token[0] or due <= token[1]:
                    fired = bool(self.rng.random() < self.p_learn)
                    self.log.append((site, self.draws, fired))
                    self.draws += 1
                    self.consumed[run_id] += 1
                    if fired:
                        self.on_fire(self, now)
        finally:
            self.draining = False

    def live(self):
        """Read one value as a packet-mode draw does: its index, value."""
        self.draws += 1
        return self.draws - 1, self.rng.random()

    def progress(self):
        return list(self.consumed)

    def pending(self):
        return sum(1 for due, _seq, _run, _site, token in self.heap
                   if token[0] or due <= token[1])


class _LedgerDraws:
    """The real ledger on a real scheme, behind the reference's interface."""

    def __init__(self, p_learn: float, seed: int, on_fire) -> None:
        world = self

        class Recording(SwitchV2P):
            def replay_learning_draw(self, switch, template):
                index = self.rng_draws
                fired_before = template.fired
                super().replay_learning_draw(switch, template)
                fired = template.fired > fired_before
                world.log.append((template.site, index, fired))
                if fired:
                    on_fire(world, world.now)

        scheme = _bare_scheme(p_learn, seed, cls=Recording)
        self.scheme = scheme
        self.ledger = _DrawLedger(scheme)
        self.log: list[tuple[int, int, bool]] = []
        self.runs: list = []
        self.now = 0

    def arm(self, t0, interval, first, end, sites):
        run = self.ledger.add_run(t0, interval, first, end,
                                  [(None, template) for template in sites])
        self.runs.append((run, first, len(sites)))
        return run

    def kill(self, run, cutoff):
        if run is not None:
            run.truncate(cutoff)

    def drain(self, now):
        """A fluid boundary's drain: an adoption, a round commit or an
        escalation."""
        self.now = now
        self.ledger.commit_due(now)

    def live(self):
        """Draw through the scheme's real path."""
        scheme = self.scheme
        scheme._maybe_send_learning_packet(None, _Template(99))
        return scheme.rng_draws - 1, scheme._learn_buf[scheme._learn_pos - 1]

    @property
    def draws(self):
        return self.scheme.rng_draws

    def progress(self):
        return [0 if run is None else (run.k - first) * nsites + run.s
                for run, first, nsites in self.runs]

    def pending(self):
        return sum((run.end - run.k) * len(run.sites) - run.s
                   for run in self.ledger._runs if run.k < run.end)


def _play(make_world, seed: int):
    """Drive one world through the randomized schedule ``seed`` names.

    Returns the world and what a reader of it can observe: replayed-draw
    counts per run and the stream position at every triggering draw,
    every live draw's stream index and value with the counts as it
    reads, and both at the end.  Both worlds consume the
    two script RNGs identically as long as they trigger on the same
    draws in the same order.
    """
    script = random.Random(seed)
    fire_script = random.Random(seed + 1_000_003)
    templates = [_Template(site) for site in range(6)]
    #: ``(handle, due time of its last packet)`` of rounds still armed.
    handles: list = []
    checkpoints: list = []

    def arm(world, rng, t0, intervals, ends, sites):
        interval = rng.choice(intervals)
        first, end = rng.randint(0, 1), rng.randint(1, ends)
        handles.append((world.arm(t0, interval, first, end, sites),
                        t0 + (end - 1) * interval))

    def kill(world, now, rng):
        if handles:
            world.kill(handles.pop(rng.randrange(len(handles)))[0], now)

    def on_fire(world, now):
        checkpoints.append(("fire", world.draws, world.progress()))
        # A trigger escalates flows (killing rounds at the drain's
        # instant), may arm one, and re-enters the drain (a no-op).
        action = fire_script.random()
        if action < 0.35:
            kill(world, now, fire_script)
        elif action < 0.6:
            sites = fire_script.sample(templates, fire_script.randint(1, 3))
            arm(world, fire_script, now - fire_script.choice((0, 0, 3)),
                (1, 2, 5), 20, sites)
        if fire_script.random() < 0.3:
            world.drain(now)

    world = make_world(on_fire)
    now = 0
    for _ in range(60):
        now += script.choice((0, 0, 1, 2, 5, 13, 40))
        action = script.random()
        if action < 0.45:
            sites = script.sample(templates, script.randint(0, 3))
            arm(world, script, now, (1, 1, 2, 3, 7), 40, sites)
        elif action < 0.6:
            kill(world, now, script)
        elif action < 0.8:
            for _ in range(script.randint(1, 3)):
                checkpoints.append(("live", *world.live(), world.progress()))
        if script.random() < 0.8:
            # A round commit's boundary: the round wholly due, if one is,
            # can no longer be killed.
            done = next((i for i, (_h, last) in enumerate(handles)
                         if last <= now), None)
            if done is not None:
                handles.pop(done)
            world.drain(now)
        elif script.random() < 0.3:
            world.drain(now)
    world.drain(now + 10_000)
    checkpoints.append(("end", world.draws, world.progress()))
    return world, checkpoints


SCHEDULES = 70


@pytest.mark.parametrize("p_learn", [0.005, 0.2, 1.0])
def test_ledger_matches_per_draw_heap(p_learn):
    """>= 200 randomized schedules (70 per ``p_learn``): same triggering
    draws at the same sites and stream indices, same draws attributed
    to every round at every trigger, same live draws, same
    ``rng_draws``."""
    fired_total = batched_total = 0
    for seed in range(SCHEDULES):
        naive, expected = _play(
            lambda on_fire: _NaiveDraws(p_learn, seed, on_fire), seed)
        real, got = _play(
            lambda on_fire: _LedgerDraws(p_learn, seed, on_fire), seed)
        assert got == expected, seed
        assert real.draws == naive.draws
        fired = [entry for entry in naive.log if entry[2]]
        # Draws the ledger hands to the scheme one by one are exactly
        # the triggering ones, in the reference's order.
        assert real.log == fired, seed
        # What the last trigger armed for later is all that is left.
        assert real.pending() == naive.pending()
        fired_total += len(fired)
        batched_total += len(naive.log) - len(real.log)
    assert fired_total > 50
    if p_learn == 1.0:
        assert batched_total == 0
    else:
        assert batched_total > fired_total


# ----------------------------------------------------------------------
# end to end: triggers inside batches, hundreds of times
# ----------------------------------------------------------------------
def test_packet_equals_hybrid_with_frequent_triggers():
    """Same-pair flows through gateway ToRs at ``p_learn = 0.2``: every
    fifth replayed draw fires from inside a batch, and the cache
    metrics must still equal packet mode exactly."""
    flows = _steady_flows(n_pairs=12)
    results = {}
    fired = 0
    for fidelity in ("packet", "hybrid"):
        scheme = SwitchV2P(16384, config=SwitchV2PConfig(p_learn=0.2))
        if fidelity == "hybrid":
            replay = scheme.replay_learning_draw

            def counting_replay(switch, template, replay=replay):
                nonlocal fired
                fired += 1
                replay(switch, template)

            scheme.replay_learning_draw = counting_replay
        network = build_network(FatTreeSpec(), scheme, 64, seed=7,
                                fidelity=fidelity)
        results[fidelity] = run_flows(network, list(flows),
                                      trace_name="steady", keep_network=True)
    packet, hybrid = results["packet"], results["hybrid"]
    assert hybrid.fluid_packets > 0
    assert fired > 300
    assert packet.network.scheme.rng_draws == hybrid.network.scheme.rng_draws
    assert _cache_metrics(packet) == _cache_metrics(hybrid)


@pytest.mark.parametrize("p_learn, n_flows, gap_ns, size, seed", [
    (0.2, 12, 23_000, 1_500_000, 778),
    (0.05, 10, 23_000, 1_000_000, 553),
], ids=["adoption", "marks"])
def test_live_draws_read_after_the_analytic_draws_already_due(
        p_learn, n_flows, gap_ns, size, seed):
    """Staggered same-pair flows: each later flow adopts while earlier
    ones are fluid, and its probe draws live at gateway ToRs after
    analytic draws of theirs fell due.  Those must read the stream
    first, as their packets did in packet mode: an adoption that does
    not drain first lets analytic draws and the probe's trade stream
    values, which moves a trigger onto another flow.  "marks" (named
    for the look-ahead bound it was written against) runs the same at
    a lower ``p_learn``."""
    flows = [FlowSpec(src_vip=2 * i, dst_vip=2 * i + 1, size_bytes=size,
                      start_ns=i * gap_ns) for i in range(n_flows)]
    results = {}
    for fidelity in ("packet", "hybrid"):
        scheme = SwitchV2P(16384, config=SwitchV2PConfig(p_learn=p_learn))
        network = build_network(FatTreeSpec(), scheme, 64, seed=seed,
                                fidelity=fidelity)
        results[fidelity] = run_flows(network, flows, trace_name="steady",
                                      keep_network=True)
    packet, hybrid = results["packet"], results["hybrid"]
    assert hybrid.fluid_adoptions == n_flows
    assert packet.network.scheme.rng_draws == hybrid.network.scheme.rng_draws
    assert _cache_metrics(packet) == _cache_metrics(hybrid)
