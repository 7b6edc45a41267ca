"""Controller: centralized cache allocation via optimization (paper §5, A.1-A.2).

A theoretical baseline: a centralized controller periodically collects
the exact traffic matrix, solves the cache-placement problem — which
V2P mappings to cache on which switches, subject to per-switch capacity
— and installs the result.  The paper formulates it as an ILP (solved
with Z3, often timing out beyond small cases) and concludes it is
impractical; it serves as a sanity upper bound for small caches whose
advantage evaporates as staleness dominates (Appendix A.2).

Two solvers are provided:

* ``"greedy"`` (default): flows sorted by traffic volume greedily claim
  the highest-saving switch on their gateway path with free capacity —
  directly encoding the two ILP insights the paper extracts (§A.1):
  minimize misses, and "move mappings to the traffic".
* ``"milp"``: the exact linearized ILP via scipy's HiGHS backend, for
  small instances (tests validate greedy against it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.caching import CachingScheme
from repro.net.addresses import pip_pod, pip_rack
from repro.net.node import Switch, SwitchHook
from repro.net.packet import Packet, PacketKind
from repro.sim.engine import usec
from repro.vnet.gateway import Gateway
from repro.vnet.hypervisor import Host
from repro.vnet.network import VirtualNetwork


def upward_path(network: VirtualNetwork, src_pip: int, gateway_pip: int,
                flow_id: int) -> list[Switch]:
    """The exact switch sequence a flow's unresolved packets traverse.

    Replays the fabric's deterministic ECMP decisions without
    transmitting anything, so the controller can reason about real
    paths (the paper assumes advance knowledge of gateway paths, §A.1).
    """
    probe = Packet(PacketKind.DATA, flow_id=flow_id, seq=0, payload_bytes=0,
                   src_vip=0, dst_vip=0, outer_src=src_pip, outer_dst=gateway_pip)
    tor = network.fabric.tors[(pip_pod(src_pip), pip_rack(src_pip))]
    path = [tor]
    node = tor
    for _ in range(10):  # fat-tree paths are short; bound defensively
        link = node.next_hop(probe)
        if link is None:
            break
        nxt = link.dst
        if isinstance(nxt, Gateway):
            break
        if not isinstance(nxt, Switch):
            break
        path.append(nxt)
        node = nxt
    return path


def switch_to_host_hops(switch: Switch, pip: int) -> int:
    """Number of switch hops from ``switch`` down/across to a host."""
    pod, rack = pip_pod(pip), pip_rack(pip)
    if switch.layer.name == "TOR":
        if switch.pod == pod and switch.rack == rack:
            return 1
        if switch.pod == pod:
            return 3  # up to a spine, down to the other ToR
        return 5
    if switch.layer.name == "SPINE":
        if switch.pod == pod:
            return 2
        return 4
    return 3  # core -> spine -> tor -> host


@dataclass
class _FlowStat:
    src_pip: int
    dst_vip: int
    gateway_pip: int
    packets: int = 0


class Controller(CachingScheme):
    """Periodic centralized cache placement (theoretical baseline)."""

    name = "Controller"

    def __init__(self, total_cache_slots: int, period_ns: int = usec(150),
                 hop_cost_ns: int = usec(1), solver: str = "greedy") -> None:
        super().__init__(total_cache_slots)
        if solver not in ("greedy", "milp"):
            raise ValueError(f"unknown solver {solver!r}")
        self.period_ns = period_ns
        self.hop_cost_ns = hop_cost_ns
        self.solver = solver
        self._flow_stats: dict[int, _FlowStat] = {}
        self.invocations = 0

    def setup(self, network: VirtualNetwork) -> None:
        super().setup(network)
        self._flow_stats = {}
        network.engine.schedule(self.period_ns, self._invoke)

    # ------------------------------------------------------------------
    # data plane: default gateway sends, lookup-only switches
    # ------------------------------------------------------------------
    def on_host_send(self, host: Host, packet: Packet) -> None:
        self.send_via_gateway(packet)
        if packet.kind == PacketKind.DATA or packet.kind == PacketKind.ACK:
            stat = self._flow_stats.get(packet.flow_id)
            if stat is None:
                stat = _FlowStat(src_pip=host.pip, dst_vip=packet.dst_vip,
                                 gateway_pip=packet.outer_dst)
                self._flow_stats[packet.flow_id] = stat
            stat.packets += 1

    def bind_hook(self, switch: Switch) -> SwitchHook | None:
        cache = self.caches.get(switch.switch_id)
        if cache is None:
            return None

        def hook(packet: Packet, ingress) -> bool:
            if self.is_traffic(packet):
                self.try_resolve(switch, packet, cache)
            return True
        return hook

    # ------------------------------------------------------------------
    # periodic allocation
    # ------------------------------------------------------------------
    def _invoke(self) -> None:
        assert self.network is not None
        self.invocations += 1
        placement = self.solve_placement()
        self._install(placement)
        self._flow_stats = {}
        self.network.engine.schedule_after(self.period_ns, self._invoke)

    def _candidate_savings(self):
        """Per-flow candidate placements with their per-packet savings."""
        assert self.network is not None
        network = self.network
        database = network.database
        flows = []
        for flow_id, stat in self._flow_stats.items():
            dst_pip = database.get(stat.dst_vip)
            if dst_pip is None:
                continue
            path = upward_path(network, stat.src_pip, stat.gateway_pip, flow_id)
            gw_tor_hops = len(path)
            gateway_cost = (
                gw_tor_hops * self.hop_cost_ns
                + network.config.gateway_processing_ns
                + switch_to_host_hops(path[-1], dst_pip) * self.hop_cost_ns
            )
            candidates = []
            for depth, switch in enumerate(path, start=1):
                via_cost = (depth * self.hop_cost_ns
                            + switch_to_host_hops(switch, dst_pip)
                            * self.hop_cost_ns)
                saving = gateway_cost - via_cost
                if saving > 0:
                    candidates.append((switch.switch_id, saving))
            if candidates:
                flows.append((stat.dst_vip, dst_pip, stat.packets, candidates))
        return flows

    def solve_placement(self) -> dict[int, list[tuple[int, int]]]:
        """Compute switch_id -> [(vip, pip)] under per-switch capacity."""
        flows = self._candidate_savings()
        if not flows:
            return {}
        if self.solver == "milp":
            return self._solve_milp(flows)
        return self._solve_greedy(flows)

    def _capacity_of(self, switch_id: int) -> int:
        cache = self.caches.get(switch_id)
        return cache.num_slots if cache is not None else 0

    def _solve_greedy(self, flows) -> dict[int, list[tuple[int, int]]]:
        placement: dict[int, list[tuple[int, int]]] = {}
        placed: dict[int, set[int]] = {}
        used: dict[int, int] = {}
        # Highest-volume flows choose first, taking their best candidate.
        for vip, pip, packets, candidates in sorted(
                flows, key=lambda item: -item[2] * max(s for _, s in item[3])):
            best = sorted(candidates, key=lambda c: -c[1])
            for switch_id, _saving in best:
                if vip in placed.get(switch_id, ()):  # already covered here
                    break
                if used.get(switch_id, 0) >= self._capacity_of(switch_id):
                    continue
                placement.setdefault(switch_id, []).append((vip, pip))
                placed.setdefault(switch_id, set()).add(vip)
                used[switch_id] = used.get(switch_id, 0) + 1
                break
        return placement

    def _solve_milp(self, flows) -> dict[int, list[tuple[int, int]]]:
        """Exact linearized ILP via scipy (small instances only)."""
        from scipy.optimize import Bounds, LinearConstraint, milp

        # Variables: one K per (switch, vip) pair that appears, plus one
        # y per (flow, candidate) pair; maximize total saved latency.
        pair_index: dict[tuple[int, int], int] = {}
        pair_pip: dict[tuple[int, int], int] = {}
        y_entries = []  # (flow_idx, pair_idx, weight)
        for f_idx, (vip, pip, packets, candidates) in enumerate(flows):
            for switch_id, saving in candidates:
                key = (switch_id, vip)
                if key not in pair_index:
                    pair_index[key] = len(pair_index)
                    pair_pip[key] = pip
                y_entries.append((f_idx, pair_index[key], packets * saving))
        num_k = len(pair_index)
        num_y = len(y_entries)
        num_vars = num_k + num_y
        objective = np.zeros(num_vars)
        for y_idx, (_f, _p, weight) in enumerate(y_entries):
            objective[num_k + y_idx] = -float(weight)  # milp minimizes

        rows, cols, vals, lower, upper = [], [], [], [], []
        row = 0
        # y <= K  (a flow can only use an installed mapping).
        for y_idx, (_f, pair_idx, _w) in enumerate(y_entries):
            rows += [row, row]
            cols += [num_k + y_idx, pair_idx]
            vals += [1.0, -1.0]
            lower.append(-np.inf)
            upper.append(0.0)
            row += 1
        # Each flow uses at most one placement.
        by_flow: dict[int, list[int]] = {}
        for y_idx, (f_idx, _p, _w) in enumerate(y_entries):
            by_flow.setdefault(f_idx, []).append(y_idx)
        for f_idx, ys in by_flow.items():
            for y_idx in ys:
                rows.append(row)
                cols.append(num_k + y_idx)
                vals.append(1.0)
            lower.append(-np.inf)
            upper.append(1.0)
            row += 1
        # Per-switch capacity.
        by_switch: dict[int, list[int]] = {}
        for (switch_id, _vip), pair_idx in pair_index.items():
            by_switch.setdefault(switch_id, []).append(pair_idx)
        for switch_id, pairs in by_switch.items():
            for pair_idx in pairs:
                rows.append(row)
                cols.append(pair_idx)
                vals.append(1.0)
            lower.append(-np.inf)
            upper.append(float(self._capacity_of(switch_id)))
            row += 1

        from scipy.sparse import coo_matrix
        matrix = coo_matrix((vals, (rows, cols)), shape=(row, num_vars))
        constraint = LinearConstraint(matrix, lower, upper)
        result = milp(
            c=objective,
            integrality=np.ones(num_vars),
            bounds=Bounds(0, 1),
            constraints=[constraint],
        )
        placement: dict[int, list[tuple[int, int]]] = {}
        if result.x is None:
            return placement
        for (switch_id, vip), pair_idx in pair_index.items():
            if result.x[pair_idx] > 0.5:
                placement.setdefault(switch_id, []).append(
                    (vip, pair_pip[(switch_id, vip)]))
        return placement

    def _install(self, placement: dict[int, list[tuple[int, int]]]) -> None:
        """Replace every cache's contents with the computed allocation."""
        for switch_id, cache in self.caches.items():
            cache.clear()
            for vip, pip in placement.get(switch_id, []):
                cache.insert(vip, pip)
