"""Fixture: D102-clean — randomness flows through seeded generators."""
import numpy as np

from repro.sim.randomness import derive_seed


def jitter(values, rng):
    rng.shuffle(values)
    return values


def make_rng(seed):
    return np.random.default_rng(derive_seed(seed, "jitter"))
