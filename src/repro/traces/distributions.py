"""Flow-size distributions for the paper's workloads.

The Hadoop and WebSearch traces are generated from the published
flow-size CDFs of the Facebook Hadoop cluster (Roy et al., SIGCOMM'15)
and the DCTCP web-search workload (Alizadeh et al., SIGCOMM'10) — the
same distributions the HPCC evaluation (which the paper's setup
follows) ships as trace inputs.  Sampling uses inverse-transform with
log-linear interpolation between CDF knots.
"""

from __future__ import annotations

import math

import numpy as np

#: (size_bytes, cumulative probability) knots; sizes strictly increasing.
SizeCdf = tuple[tuple[float, float], ...]

#: Facebook Hadoop intra-cluster flow sizes: dominated by sub-4KB mice
#: with a thin heavy tail.
HADOOP_CDF: SizeCdf = (
    (100, 0.0),
    (200, 0.1),
    (300, 0.3),
    (400, 0.45),
    (600, 0.6),
    (1_100, 0.7),
    (1_870, 0.8),
    (3_160, 0.9),
    (10_000, 0.95),
    (30_000, 0.97),
    (100_000, 0.98),
    (300_000, 0.99),
    (1_000_000, 0.999),
    (10_000_000, 1.0),
)

#: DCTCP web-search flow sizes: mostly heavy flows (median ~50KB,
#: tail in the tens of MB).
WEBSEARCH_CDF: SizeCdf = (
    (6_000, 0.0),
    (10_000, 0.15),
    (13_000, 0.2),
    (19_000, 0.3),
    (33_000, 0.4),
    (53_000, 0.53),
    (133_000, 0.6),
    (667_000, 0.7),
    (1_333_000, 0.8),
    (3_333_000, 0.9),
    (6_667_000, 0.97),
    (20_000_000, 1.0),
)


def validate_cdf(cdf: SizeCdf) -> None:
    """Check monotonicity of sizes and probabilities.

    Raises:
        ValueError: if the CDF is malformed.
    """
    if len(cdf) < 2:
        raise ValueError("CDF needs at least two knots")
    last_size, last_p = -1.0, -1.0
    for size, prob in cdf:
        if size <= last_size:
            raise ValueError(f"CDF sizes must strictly increase (at {size})")
        if prob < last_p:
            raise ValueError(f"CDF probabilities must not decrease (at {prob})")
        last_size, last_p = size, prob
    if abs(cdf[-1][1] - 1.0) > 1e-9:
        raise ValueError("CDF must end at probability 1.0")


def mean_size(cdf: SizeCdf) -> float:
    """Approximate mean flow size implied by the CDF (trapezoidal)."""
    validate_cdf(cdf)
    total = 0.0
    for (s0, p0), (s1, p1) in zip(cdf, cdf[1:]):
        total += (p1 - p0) * (s0 + s1) / 2
    return total


def sample_sizes(cdf: SizeCdf, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` flow sizes from ``cdf`` (bytes, at least 1)."""
    validate_cdf(cdf)
    uniform = rng.random(count)
    sizes = np.empty(count)
    knots = list(cdf)
    probs = np.array([p for _, p in knots])
    # One search for all draws; the interpolation stays scalar
    # ``math`` calls, which numpy's vectorised log/exp need not match
    # to the last bit.
    upper = np.clip(np.searchsorted(probs, uniform, side="right"), 1, len(knots) - 1)
    for i, (u, j) in enumerate(zip(uniform.tolist(), upper.tolist())):
        s0, p0 = knots[j - 1]
        s1, p1 = knots[j]
        if p1 <= p0:
            sizes[i] = s1
            continue
        fraction = (u - p0) / (p1 - p0)
        # Log-linear interpolation keeps the heavy tail heavy.
        sizes[i] = math.exp(math.log(s0) + fraction * (math.log(s1) - math.log(s0)))
    return np.maximum(1, sizes).astype(np.int64)


def poisson_arrival_times(rate_per_ns: float, count: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Cumulative Poisson arrival times (ns) for ``count`` events."""
    if rate_per_ns <= 0:
        raise ValueError("arrival rate must be positive")
    gaps = rng.exponential(1.0 / rate_per_ns, count)
    return np.cumsum(gaps).astype(np.int64)


def load_to_arrival_rate(load: float, num_servers: int, link_bps: float,
                         mean_flow_bytes: float) -> float:
    """Flow arrival rate (per ns) that offers ``load`` on the host links.

    The paper generates Hadoop/WebSearch at 30% network load on
    100 Gbps links (§5, following HPCC's methodology).
    """
    if not 0 < load <= 1:
        raise ValueError(f"load must be in (0, 1], got {load}")
    bytes_per_second = load * num_servers * link_bps / 8
    flows_per_second = bytes_per_second / mean_flow_bytes
    return flows_per_second / 1e9
