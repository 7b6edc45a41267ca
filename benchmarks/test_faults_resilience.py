"""Chaos experiment: resilience under gateway and switch outages.

Every scheme runs the identical fault schedule — a gateway-rack power
loss (the gateway *and* its ToR, so Sailfish-style gateway-ToR caches
die with the rack) followed by a spine fail + recover — against its own
undisturbed baseline.  The paper's robustness claim (§1/§2: the
opportunistic caches make the system resilient to failures) shows up
as SwitchV2P adding less FCT than the gateway-centric design to flows
born during the gateway outage and losing no more packets at the dead
gateway than the host-centric one, and as the windowed hit rate dipping
after the spine's cold restart and then re-warming from passing traffic.
"""

from common import run_artifact
from repro.experiments.faults import (
    GATEWAY_CRASH_NS,
    SPINE_FAIL_NS,
    SPINE_RECOVER_NS,
    ChaosParams,
    chaos_jobs,
)


def gateway_drops(row) -> int:
    return (row.faulted.gateway_crash_drops
            + row.faulted.gateway_unavailable_drops)


def test_faults_resilience(benchmark):
    rows = run_artifact(benchmark, "faults_resilience")
    by_scheme = {row.scheme: row for row in rows}
    switchv2p = by_scheme["SwitchV2P"]
    gwcache = by_scheme["GwCache"]
    ondemand = by_scheme["OnDemand"]

    # (a) What holds beyond this one flow draw (seeds 0-7, all eight):
    # a mid-run gateway failure adds less FCT to the flows born during
    # the outage under SwitchV2P than under the gateway-centric
    # baseline, loses it no more packets at the dead gateway than the
    # host-centric one, and costs it no more availability than either.
    # Against OnDemand's added FCT the draw decides (4 of 8 seeds).
    assert switchv2p.gateway_window_added_ns < gwcache.gateway_window_added_ns
    assert gateway_drops(switchv2p) <= gateway_drops(ondemand)
    assert switchv2p.availability_drop <= gwcache.availability_drop
    assert switchv2p.availability_drop <= ondemand.availability_drop

    # The hypervisor failure detector actually failed traffic over.
    assert switchv2p.faulted.gateway_failovers >= 1

    # (b) After the last repair, SwitchV2P's windowed hit rate returns
    # to >= 90% of its pre-fault baseline.
    assert switchv2p.faulted.time_to_recover_ns is not None


def test_hit_rate_dips_then_recovers_after_spine_restart():
    """The spine's cold restart is visible in the windowed hit rate."""
    job = chaos_jobs(ChaosParams())["SwitchV2P", "faulted"]
    samples = job.run().hit_rate_windows
    pre = [value for time_ns, value in samples
           if SPINE_FAIL_NS - GATEWAY_CRASH_NS <= time_ns < SPINE_FAIL_NS]
    post = [value for time_ns, value in samples if time_ns > SPINE_RECOVER_NS]
    assert pre and len(post) >= 8
    baseline = sum(pre) / len(pre)
    # The recovered spine restarts cold: the first windows after repair
    # dip below the pre-outage hit rate...
    dip = min(post[:4])
    assert dip < baseline
    # ...and passing traffic re-warms the cache back toward it.
    tail = sum(post[-4:]) / 4
    assert tail > dip
    assert tail >= 0.9 * baseline
