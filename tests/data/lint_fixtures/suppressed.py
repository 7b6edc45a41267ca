"""Fixture: suppression comments neutralise reviewed findings."""
import random
import time


def shake(probes):
    random.seed(7)  # repro-lint: disable=D102 -- fixture: trailing form
    # repro-lint: disable-next-line=D103 -- fixture: next-line form
    order = list(set(probes))
    started = time.time()
    return order, started
