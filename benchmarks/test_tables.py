"""Regenerate the committed tables and check the paper's shape on them.

One test per entry of the artifact registry
(``repro.experiments.artifacts``), at the bench scale of ``common.py``:
it renders the entry's table, prints it (visible with ``-s``), writes
it to ``benchmarks/results/<name>.txt`` — the only writer there, and
only at the ``default`` scale the tables are committed at, so a
``fast`` or ``full`` run leaves them as they are — and fails naming
each of the entry's claims that does not hold, the check
``regen_check.py`` makes without writing.  The selected entries are
simulated together, in one de-duplicated pool call, so ``-k fig5a``
simulates Figure 5a alone::

    REPRO_RUNCACHE=0 PYTHONPATH=src python -m pytest benchmarks/test_tables.py -s
"""

import pytest

from common import RESULTS_DIR, bench_scale, scale_name
from repro.experiments.artifacts import ARTIFACTS, simulate
from repro.experiments.faults import (
    GATEWAY_CRASH_NS,
    SPINE_FAIL_NS,
    SPINE_RECOVER_NS,
    ChaosParams,
    chaos_jobs,
)


@pytest.fixture(scope="module")
def results(request):
    """What every selected entry's table reads, from one pool call."""
    selected = {item.callspec.params["name"] for item in request.session.items
                if item.module is request.module and hasattr(item, "callspec")}
    return simulate([entry for name, entry in ARTIFACTS.items()
                     if name in selected], *bench_scale())


@pytest.mark.parametrize("name", list(ARTIFACTS))
def test_table(name, results):
    entry = ARTIFACTS[name]
    text = entry.render(results[name])
    print()
    print(text)
    if scale_name() == "default":
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    assert entry.false_claims(results[name]) == []


def test_hit_rate_dips_then_recovers_after_spine_restart():
    """The spine's cold restart is visible in the windowed hit rate."""
    job = chaos_jobs(ChaosParams())["SwitchV2P", "faulted"]
    samples = job.run().hit_rate_windows
    pre = [value for time_ns, value in samples
           if SPINE_FAIL_NS - GATEWAY_CRASH_NS <= time_ns < SPINE_FAIL_NS]
    post = [value for time_ns, value in samples if time_ns > SPINE_RECOVER_NS]
    assert pre and len(post) >= 8
    baseline = sum(pre) / len(pre)
    # The recovered spine restarts cold: the first windows after repair
    # dip below the pre-outage hit rate...
    dip = min(post[:4])
    assert dip < baseline
    # ...and passing traffic re-warms the cache back toward it.
    tail = sum(post[-4:]) / 4
    assert tail > dip
    assert tail >= 0.9 * baseline
