"""LocalLearning: the strawman local-greedy design (paper §3.1).

Every switch performs destination learning and admits every insertion,
with no topology awareness.  The paper uses it to demonstrate why local
greedy decisions waste cache space: mappings learned on the
gateway-to-destination path mostly sit on switches the sender's packets
never traverse, and ToRs thrash under admit-all pressure.
"""

from __future__ import annotations

from repro.baselines.caching import CachingScheme


class LocalLearning(CachingScheme):
    """Greedy destination learning with admit-all on every switch."""

    name = "LocalLearning"
