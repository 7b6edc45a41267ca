"""The reachability ledger's recorder (``reachability.py``)."""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

from reachability import reached, unreached

# The recorder keys functions by ``CodeType.co_qualname``.
pytestmark = pytest.mark.skipif(sys.version_info < (3, 11),
                                reason="co_qualname is new in 3.11")

HERE = Path(__file__).resolve().parent


def _outer():
    def inner():
        return 1
    return inner()


def _in_a_thread():
    return 2


def _on_the_main_thread_only():
    return 3


def _never_called():
    return 4


def _names(keys):
    return {name for _, _, name in keys}


def test_a_nested_function_and_a_call_from_another_thread_are_reached():
    def call():
        worker = threading.Thread(target=_in_a_thread)
        worker.start()
        worker.join()
        return _outer()

    result, keys = reached(call, HERE)
    assert result == 1
    names = _names(keys)
    assert {"_outer", "_outer.<locals>.inner", "_in_a_thread"} <= names
    assert "_never_called" not in names
    assert {path for path, _, _ in keys} == {"tests/test_reachability.py"}


def test_the_profile_hooks_come_off_when_the_call_returns():
    reached(_outer, HERE)
    _, keys = reached(lambda: None, HERE)
    worker = threading.Thread(target=_on_the_main_thread_only)
    worker.start()
    worker.join()
    assert "_on_the_main_thread_only" not in _names(keys)
    assert threading.getprofile() is None


def test_the_ledger_lists_what_was_not_reached_with_its_lines():
    _, keys = reached(_outer, HERE)
    ledger = unreached(keys, HERE)["tests/test_reachability.py"]
    spans = {name: (first, last) for name, first, last in ledger}
    first, last = spans["_never_called"]
    assert last == first + 1
    assert "_outer" not in spans and "_outer.<locals>.inner" not in spans
