"""Gateway consolidation: keep performance while removing 10x gateways.

Reproduces the operational story of paper §5.3 / Figure 9: because
SwitchV2P absorbs most translations inside the network, an operator can
shrink the gateway fleet by an order of magnitude with nearly unchanged
FCT, while the gateway-driven baseline degrades (and starts dropping
packets when the remaining gateways saturate).  The table is the
registry's Figure 9 entry, at a smaller trace than the committed one.

Run:  python examples/gateway_consolidation.py
"""

from repro.experiments import FigureScale
from repro.experiments.artifacts import ARTIFACTS, simulate


def main() -> None:
    fig9 = ARTIFACTS["fig9_gateways"]
    rows = simulate([fig9], FigureScale(num_vms=256, hadoop_flows=2000),
                    workers=2)[fig9.name]
    print(fig9.render(rows))
    print()
    v2p = [r for r in rows if r.scheme == "SwitchV2P"]
    most, fewest = v2p[0], v2p[-1]
    delta = (fewest.result.avg_fct_ns / most.result.avg_fct_ns - 1) * 100
    print(f"SwitchV2P FCT change going from {int(most.x_value)} to "
          f"{int(fewest.x_value)} gateways: {delta:+.1f}%")


if __name__ == "__main__":
    main()
