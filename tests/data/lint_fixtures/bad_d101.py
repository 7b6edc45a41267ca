"""Fixture: D101 — wall-clock reads inside simulation code.

Linted as ``repro.fixtures.bad_d101``, so the sim-package scoping
applies.
"""
import time
from datetime import datetime
from time import perf_counter as pc


def stamp_events(events):
    started = time.time()
    for event in events:
        event.host_ts = pc()
    return datetime.now(), started
