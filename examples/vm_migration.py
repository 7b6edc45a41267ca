"""Live VM migration under incast: the invalidation protocol at work.

Reproduces the paper's §5.2 scenario: many UDP senders target one VM,
which migrates to another rack mid-trace.  Compares NoCache, OnDemand
and three SwitchV2P variants — without invalidation packets, without
the timestamp vector, and the full protocol — showing how targeted
invalidations cut misdeliveries while the timestamp vector caps the
invalidation traffic (Table 4).  Each variant is one job of the
registry's Table 4 entry; the migration is one fault event of it.

Run:  python examples/vm_migration.py
"""

from repro.experiments.artifacts import ARTIFACTS, simulate
from repro.traces import IncastTraceParams


def main() -> None:
    # 16 senders x 500 packets over 1 ms = 64 Gbps of incast: heavy,
    # but under the destination NIC's 100 Gbps so the latency effect
    # of gateway detours stays visible (as in the paper's Table 4).
    params = IncastTraceParams(num_senders=16, packets_per_sender=500)
    table4 = ARTIFACTS["table4_migration"]
    results = simulate([table4], params)[table4.name]
    print(f"VM migration at t=500us ({params.num_senders} senders, "
          f"{params.total_packets} packets)")
    print(table4.render(results))
    print()
    full = results["SwitchV2P w/ timestamp vector"]
    no_tsvec = results["SwitchV2P w/o timestamp vector"]
    if no_tsvec.invalidation_packets:
        saving = no_tsvec.invalidation_packets / max(1, full.invalidation_packets)
        print(f"Timestamp vector cut invalidation packets by {saving:.0f}x "
              f"({no_tsvec.invalidation_packets} -> "
              f"{full.invalidation_packets}) with identical latency.")


if __name__ == "__main__":
    main()
