"""W402: data-plane-reachable mutations that never notify an observer."""


class Cache:
    def __init__(self):
        self._keys = {}
        self.on_mutate = None

    def insert(self, vip, pip):
        # Mutation with no escalation anywhere on the path (finding 1).
        self._keys[vip] = pip

    def invalidate(self, vip):
        # Mutation through a state-returning helper (finding 2): the
        # alias is only visible to the dataflow summary fixpoint.
        entries = self._entries()
        entries.pop(vip, None)

    def _entries(self):
        return self._keys


class Switch:
    def __init__(self):
        self.cache = Cache()

    def on_switch(self, packet):
        self.cache.insert(packet.vip, packet.pip)
        self.cache.invalidate(packet.vip)
