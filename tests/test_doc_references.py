"""Every file, symbol and line the documentation names exists.

The documents checked are ``README.md``, ``DESIGN.md``, ``docs/*.md``
and the docstring of every module under ``src/``.  In them, each
backticked reference of one of these forms must resolve:

* ``dir/file.ext`` — a path with at least one directory;
* ``file.py::symbol`` — ``symbol`` (a function, class, ``Class.member``
  or module-level name) is defined in the file;
* ``file.ext:line`` — the file has at least that many lines;
* ``Class.member`` — when a class of that name is defined under
  ``src/``, one of them, or a base class of it found by name, defines
  the member: a def, a class attribute or a ``self.x`` assignment.

A reference resolves against the repository root, ``src/``,
``src/repro/`` or the document's own directory; a relative Markdown
link ``[text](target)`` against the document's directory.  Fenced code
blocks are commands, not references, and are skipped.

Out of scope: ``EXPERIMENTS.md`` and ``CHANGES.md``, whose ledgers name
deleted files on purpose, and ``bench/README.md``, whose stale names are
left to the next change to the benchmark.
"""
from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_FENCE = re.compile(r"^```.*?^```", re.S | re.M)
_SPAN = re.compile(r"(`+)([^`\n]+?)\1")
_REFERENCE = re.compile(r"(?P<path>[\w.-]+(?:/[\w.-]+)*\.[a-z]+)"
                        r"(?:::(?P<symbol>[\w.]+)(?:\[[^\]]*\])?"
                        r"|:(?P<line>\d+)(?:-\d+)?)?")
_LINK = re.compile(r"\]\(([^)\s]+)\)")
_MEMBER = re.compile(r"(?P<cls>[A-Z]\w*)\.(?P<member>\w+)(?:\(\))?")


def _documents() -> list[Path]:
    return [ROOT / "README.md", ROOT / "DESIGN.md",
            *sorted((ROOT / "docs").glob("*.md")),
            *sorted(path for path in (ROOT / "src").rglob("*.py")
                    if "__pycache__" not in path.parts)]


def _text(doc: Path) -> str:
    """A Markdown document without its code blocks, or a module's
    docstring."""
    text = doc.read_text(encoding="utf-8")
    if doc.suffix == ".md":
        return _FENCE.sub("", text)
    return ast.get_docstring(ast.parse(text), clean=False) or ""


def _defined(path: Path) -> set[str]:
    """Names a module defines: top-level ones and ``Class.member``."""
    names: set[str] = set()

    def collect(body: list[ast.stmt], prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names.add(prefix + node.name)
                if isinstance(node, ast.ClassDef):
                    collect(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in getattr(node, "targets", None) or [node.target]:
                    if isinstance(target, ast.Name):
                        names.add(prefix + target.id)

    collect(ast.parse(path.read_text(encoding="utf-8")).body, "")
    return names


def _class_members() -> dict[str, tuple[set[str], list[str]]]:
    """Every class defined under ``src/``, by name: the members its
    definitions make and the names of their bases."""
    classes: dict[str, tuple[set[str], list[str]]] = {}
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            members, bases = classes.setdefault(node.name, (set(), []))
            bases.extend(base.id if isinstance(base, ast.Name) else base.attr
                         for base in node.bases
                         if isinstance(base, (ast.Name, ast.Attribute)))
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    members.add(item.name)
                elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                    members.update(
                        target.id for target in
                        getattr(item, "targets", None) or [item.target]
                        if isinstance(target, ast.Name))
            for inner in ast.walk(node):
                if (isinstance(inner, ast.Attribute)
                        and isinstance(inner.ctx, ast.Store)
                        and isinstance(inner.value, ast.Name)
                        and inner.value.id == "self"):
                    members.add(inner.attr)
    return classes


_CLASSES = _class_members()


def _has_member(cls: str, member: str) -> bool:
    """Whether ``cls`` or a base class of it found by name defines
    ``member``."""
    seen, todo = set(), [cls]
    while todo:
        name = todo.pop()
        if name in seen or name not in _CLASSES:
            continue
        seen.add(name)
        members, bases = _CLASSES[name]
        if member in members:
            return True
        todo.extend(bases)
    return False


def _broken(doc: Path, text: str) -> list[str]:
    """What ``doc`` names that does not resolve, one line each."""
    bases = (ROOT, ROOT / "src", ROOT / "src" / "repro", doc.parent)
    problems = []
    for span in _SPAN.finditer(text):
        member = _MEMBER.fullmatch(span.group(2).strip())
        if member is not None and member["cls"] in _CLASSES:
            if not _has_member(member["cls"], member["member"]):
                problems.append(f"`{span.group(2)}`: {member['cls']} has no "
                                f"member {member['member']}")
            continue
        ref = _REFERENCE.fullmatch(span.group(2).strip())
        if ref is None or ("/" not in ref["path"]
                           and not (ref["symbol"] or ref["line"])):
            continue
        target = next((base / ref["path"] for base in bases
                       if (base / ref["path"]).is_file()), None)
        if target is None:
            problems.append(f"`{span.group(2)}`: no such file")
        elif ref["symbol"] and ref["symbol"] not in _defined(target):
            problems.append(f"`{span.group(2)}`: {ref['symbol']} is not "
                            f"defined in {target.relative_to(ROOT)}")
        elif ref["line"] and int(ref["line"]) > len(
                target.read_text(encoding="utf-8").splitlines()):
            problems.append(f"`{span.group(2)}`: {target.relative_to(ROOT)} "
                            "is shorter than that")
    if doc.suffix == ".md":
        for link in _LINK.finditer(text):
            target = link.group(1).split("#", 1)[0]
            if target and ":" not in target \
                    and not (doc.parent / target).exists():
                problems.append(f"link ({link.group(1)}): no such file")
    return problems


@pytest.mark.parametrize("doc", _documents(),
                         ids=lambda doc: str(doc.relative_to(ROOT)))
def test_every_reference_resolves(doc):
    problems = _broken(doc, _text(doc))
    assert not problems, "\n".join(
        f"{doc.relative_to(ROOT)}: {problem}" for problem in problems)


def test_a_broken_reference_of_each_form_is_reported(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text("")
    problems = _broken(doc, "`cli.py::main` `cli.py::no_such_name` "
                            "`cli.py:99999` `sim/no_such.py` "
                            "`SwitchV2P.rng_draws` `SwitchV2P.cache_of()` "
                            "`PacketKind.DATA` `Generator.random` "
                            "`SwitchV2P.no_such_member` "
                            "[ok](doc.md) [gone](gone.md#anchor)")
    assert problems == [
        "`cli.py::no_such_name`: no_such_name is not defined in "
        "src/repro/cli.py",
        "`cli.py:99999`: src/repro/cli.py is shorter than that",
        "`sim/no_such.py`: no such file",
        "`SwitchV2P.no_such_member`: SwitchV2P has no member no_such_member",
        "link (gone.md#anchor): no such file"]
