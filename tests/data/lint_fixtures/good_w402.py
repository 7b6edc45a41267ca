"""W402-clean: every function that writes state notifies in its own body."""


class Cache:
    def __init__(self):
        # Set-up: no observer exists yet, constructors are not checked.
        self._keys = {}
        self._abits = {}
        self.on_mutate = None

    def insert(self, vip, pip):
        # Direct store; observer fired through the aliased-hook idiom.
        self._keys[vip] = pip
        cb = self.on_mutate
        if cb is not None:
            cb()

    def peek(self, vip):
        # Reads through an alias write nothing.
        keys = self._keys
        return keys.get(vip)


class Database:
    def __init__(self):
        self._table = {}
        self._listeners = []

    def load(self, mappings):
        # Store through a local alias; two-step hook alias: the list,
        # then each listener in it.
        table = self._table
        listeners = self._listeners
        for vip, pip in mappings:
            table[vip] = pip
            for listener in listeners:
                listener(vip, -1, pip)

    def remove(self, vip):
        # A mutating container method is a write.
        old = self._table.pop(vip, None)
        for listener in self._listeners:
            listener(vip, old, -1)


class Network:
    def mark_gateway_down(self, gateway):
        self.live_gateways.remove(gateway)
        self.fluid.escalate_all("gateway-change")


def bind_hook(cache, fluid, switch):
    # A closure is part of the function that defines it.
    def hook(packet):
        cache._abits[packet.slot] = 0
        fluid.escalate_switch(switch)

    return hook
