"""W402-clean: every reachable mutation reaches a notification."""


class Cache:
    def __init__(self):
        self._keys = {}
        self.on_mutate = None
        self._listeners = []

    def insert(self, vip, pip):
        # Observer fired through the aliased-hook idiom.
        self._keys[vip] = pip
        cb = self.on_mutate
        if cb is not None:
            cb()

    def invalidate(self, vip):
        # Mutation through a state-returning helper, notified through a
        # listener loop.
        entries = self._entries()
        entries.pop(vip, None)
        for listener in self._listeners:
            listener(vip)

    def migrate(self, vip, pip):
        # The notification lives in a transitive callee.
        self._keys[vip] = pip
        self._finish(vip)

    def _finish(self, vip):
        self.escalate_vip(vip)

    def escalate_vip(self, vip):
        pass

    def _entries(self):
        return self._keys


class Switch:
    def __init__(self):
        self.cache = Cache()

    def on_switch(self, packet):
        self.cache.insert(packet.vip, packet.pip)
        self.cache.invalidate(packet.vip)
        self.cache.migrate(packet.vip, packet.pip)
