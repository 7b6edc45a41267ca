"""Fixture: R304 — fault state written behind the fabric's back.

Linted as ``repro.net.node``, so ``Switch.fail`` may write ``_failed``
and nothing else here may write fault state.
"""


class Switch:
    def fail(self):
        self._failed = True

    def crash(self):
        self._failed = True


def cut(link):
    link.up = False


def degrade(link, rng):
    setattr(link, "_loss_rng", rng)
