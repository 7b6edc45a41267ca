"""Ablation: the rejected DHT design vs SwitchV2P (paper §2.4).

The DHT stores every mapping on exactly one resolver switch: updates
are cheap and hit rate is 100% by construction, but packets detour via
the resolver, so the path-length (and with it FCT/latency) advantage of
en-route caching disappears, and resolver switches become critical
infrastructure.
"""

from common import run_artifact


def test_ablation_dht(benchmark):
    results = run_artifact(benchmark, "ablation_dht")
    dht = results["DhtStore"]
    v2p = results["SwitchV2P"]
    direct = results["Direct"]
    # The DHT never touches gateways and resolves at line rate, so its
    # FCT sits between Direct and the caching schemes — §2.4 rejects it
    # for *operational* reasons (resolver-failure criticality, hot-key
    # concentration, memory inefficiency), not raw latency; see
    # tests/test_dht.py::test_resolver_failure_blackholes_its_vips.
    assert dht.gateway_arrivals == 0
    assert dht.avg_fct_ns >= direct.avg_fct_ns
    # The detour costs path length: SwitchV2P's en-route hits give it
    # a strictly shorter average packet path.
    assert v2p.avg_stretch < dht.avg_stretch
