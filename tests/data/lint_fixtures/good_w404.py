"""W404-clean: every function that opens the pair closes it itself."""
import gc


def run_loop(events):
    gc.disable()
    try:
        for event in events:
            event()
    finally:
        gc.enable()


def paused():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def build(network):
    with paused():
        network.wire()
