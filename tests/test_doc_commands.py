"""Every ``python -m repro`` command the documentation shows parses.

The documents checked are ``README.md``, ``DESIGN.md``, ``docs/*.md``,
``EXPERIMENTS.md`` and ``examples/README.md``.  Each line of their
fenced code blocks is split on ``&&`` and ``;``; every piece that runs
``python -m repro`` must parse with :func:`repro.cli.build_parser`,
once its ``VAR=value`` prefixes and a trailing ``#`` comment are
dropped.  Only the parse is checked: nothing runs.

A piece with a ``$`` expansion cannot be parsed as written.  It is
skipped, so pytest's summary reports how many there are.
"""
from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = (ROOT / "README.md", ROOT / "DESIGN.md",
             *sorted((ROOT / "docs").glob("*.md")),
             ROOT / "EXPERIMENTS.md", ROOT / "examples" / "README.md")

_FENCE = re.compile(r"^```.*?^```", re.S | re.M)
_SEPARATOR = re.compile(r"&&|;")
_ASSIGNMENT = re.compile(r"^\w+=")
_COMMAND = "python -m repro"


def doc_commands(text: str) -> list[tuple[int, str]]:
    """``(line number, command)`` of every piece of a fenced line of
    ``text`` that runs ``python -m repro``."""
    found = []
    for block in _FENCE.finditer(text):
        first = text.count("\n", 0, block.start()) + 1
        for offset, line in enumerate(block.group().splitlines()):
            found += [(first + offset, piece.strip())
                      for piece in _SEPARATOR.split(line)
                      if _COMMAND in piece]
    return found


def parse_error(command: str) -> str | None:
    """Why ``command`` does not parse, or None when it does."""
    words = shlex.split(command, comments=True)
    while words and _ASSIGNMENT.match(words[0]):
        words.pop(0)
    if " ".join(words[:3]) != _COMMAND:
        return f"does not start with {_COMMAND!r}"
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr):
            build_parser().parse_args(words[3:])
    except SystemExit as exit_:
        if exit_.code:
            return stderr.getvalue().strip().splitlines()[-1]
    return None


def _cases() -> list:
    return [pytest.param(command, id=f"{doc.relative_to(ROOT)}:{line}")
            for doc in DOCUMENTS
            for line, command in doc_commands(doc.read_text(encoding="utf-8"))]


@pytest.mark.parametrize("command", _cases())
def test_a_documented_command_parses(command):
    if "$" in command:
        pytest.skip("a $ expansion: not parseable as written")
    error = parse_error(command)
    assert error is None, f"{command}: {error}"


def test_a_broken_command_is_caught():
    text = ("```bash\n"
            "cd /tmp && REPRO_RUNCACHE=0 python -m repro list  # fine\n"
            "python -m repro chaos --replay old.json; python -m repro list\n"
            "```\n")
    commands = doc_commands(text)
    assert [line for line, _ in commands] == [2, 3, 3]
    assert [parse_error(command) for _, command in commands] == [
        None, "repro: error: unrecognized arguments: --replay old.json",
        None]
