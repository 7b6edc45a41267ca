"""Graceful degradation: the self-healing plane under gray failures.

SwitchV2P runs one gray episode — a gateway brownout overlapping a
degraded ToR-spine cable, plus mid-episode cache bit flips that no
scheduled event repairs — twice: hardened (gray EWMA detector and
anti-entropy audit) and unhardened (binary probing only, every
self-healing knob off).  The claim under test is the
recovery contrast: after the brownout and cable damage heal, the
hardened variant's FCT returns to its fault-free baseline because the
audit already repaired the flipped lines, while the unhardened variant
keeps retransmitting into black-holed translations.
"""

from common import run_artifact


def test_gray_degradation(benchmark):
    rows = run_artifact(benchmark, "gray_degradation")
    by_variant = {row.variant: row for row in rows}
    hardened = by_variant["hardened"]
    unhardened = by_variant["unhardened"]

    # Both variants took the same corruption; only the hardened plane
    # noticed and acted on any of it.
    healed, blind = hardened.faulted, unhardened.faulted
    assert healed.corrupted_lines == blind.corrupted_lines > 0
    assert healed.gray_detections >= 1
    assert healed.gray_reinstatements >= 1
    assert healed.audit_repairs >= healed.corrupted_lines
    assert blind.gray_detections == 0
    assert blind.audit_repairs == 0

    # The gray detector sheds load off the browned-out gateway before
    # the brownout ever drops a packet of ours; the blind variant keeps
    # sending into the shedding gateway.
    assert healed.gateway_brownout_drops < blind.gateway_brownout_drops

    # The headline recovery contrast: hardened FCT returns to its
    # fault-free baseline after the episode (audit repaired the flipped
    # lines), unhardened does not.
    assert hardened.after_fct_degradation < 1.5
    assert unhardened.after_fct_degradation > 2.0
    assert hardened.fct_degradation < unhardened.fct_degradation
