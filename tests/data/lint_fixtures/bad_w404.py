"""W404: a pair opened in one function and closed in none, or elsewhere."""
import gc


def run_loop(events):
    # Never re-enabled (finding 1).
    gc.disable()
    for event in events:
        event()


def pause_only():
    # Leaves the close to its callers (finding 2): one that forgets, or
    # raises first, runs the rest of the process with the collector off.
    gc.disable()


def caller(events):
    pause_only()
    run_loop(events)
    gc.enable()


def build(network):
    # Closes through a helper of its own, but this open is not the
    # helper's (finding 3): a call graph credits build() with reaching
    # gc.enable and misses it.
    gc.disable()
    with paused():
        network.wire()


def paused():
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
