"""W402: functions that write state and leave the notification to others."""


class Cache:
    def __init__(self):
        self._keys = {}
        self._abits = {}
        self.on_mutate = None

    def insert(self, vip, pip):
        self._keys[vip] = pip
        cb = self.on_mutate
        if cb is not None:
            cb()

    def migrate(self, vip, pip):
        # The notification lives in a callee (finding 1): nothing keeps
        # _finish escalating, or migrate calling it on every branch.
        self._keys[vip] = pip
        self._finish(vip)

    def _finish(self, vip):
        self.escalate_all("vm-migration")

    def escalate_all(self, reason):
        pass


def tor_hook(cache):
    # A hook builder answers for what its hook writes (finding 2):
    # cache.insert notifies for its own write, not for this one.
    def hook(packet):
        cache._abits[packet.slot] = 0
        cache.insert(packet.vip, packet.pip)

    return hook
