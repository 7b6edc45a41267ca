"""Lint configuration, loaded from ``[tool.repro-lint]`` in pyproject.toml.

The engine has one user, this repository, and that section is the one
place its scope (paths, the simulation package, the module allowed to
read the wall clock) and its contracts (memo pairings, paired calls)
are declared; what no repository ever varied — state attributes,
notification names, RNG constructors — is a constant next to the rule
that uses it.  Unknown keys are rejected, so a typo cannot silently
disable a rule, and a missing section is an error rather than an empty
rule set.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class MemoPairing:
    """One structural mutator-must-invalidate invariant (rule R303).

    Attributes:
        module: fnmatch pattern on the dotted module name.
        cls: class whose methods are inspected ("*" = any class).
        mutators: regexes; a method whose name fully matches any of
            them is a mutator and must reference the invalidation.
        require: identifiers (called names or touched attributes) that
            must *all* appear somewhere in the mutator's body.
    """

    module: str
    cls: str
    mutators: tuple[str, ...]
    require: tuple[str, ...]


@dataclass(frozen=True)
class CallPair:
    """One must-pair call discipline (W404): a function that calls
    ``open`` must call ``close`` too.  Both are resolved dotted call
    targets (``gc.disable``)."""

    open: str
    close: str


@dataclass(frozen=True)
class LintConfig:
    """What ``[tool.repro-lint]`` declares; empty means "checks nothing"."""

    #: Directories/files linted when the CLI gets no path arguments.
    paths: tuple[str, ...] = ()
    #: Rule ids to run (empty = every registered rule); the CLI's
    #: ``--select``, not a pyproject key.
    select: tuple[str, ...] = ()
    #: Packages whose modules carry simulation semantics; rules scoped
    #: to simulation code (D101, D102's provenance half, D103) only
    #: fire inside these.
    sim_packages: tuple[str, ...] = ()
    #: Modules allowed to read the wall clock (fnmatch patterns).
    wall_clock_allow: tuple[str, ...] = ()
    memo_pairings: tuple[MemoPairing, ...] = ()
    #: W404 open/close call pairs.
    flow_call_pairs: tuple[CallPair, ...] = ()


def find_pyproject(start: Path | None = None) -> Path | None:
    """Locate pyproject.toml in ``start`` or any parent directory."""
    current = (start or Path.cwd()).resolve()
    for candidate in (current, *current.parents):
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


def _tuple(raw: object) -> tuple[str, ...]:
    if isinstance(raw, str):
        return (raw,)
    return tuple(str(item) for item in raw)  # type: ignore[union-attr]


def _entries(tables: list[dict], key: str, known: set[str], pyproject: Path):
    """The tables of ``[[tool.repro-lint.<key>]]``, their keys checked.

    A plain key written below an array-of-tables header is, to TOML, a
    key of that array's last table; without this check it would be
    silently unread.
    """
    for entry in tables:
        unknown = set(entry) - known
        if unknown:
            raise ValueError(
                f"unknown key(s) {sorted(unknown)} in a "
                f"[[tool.repro-lint.{key}]] entry of {pyproject}")
        yield entry


_LIST_KEYS = {
    "paths": "paths",
    "sim-packages": "sim_packages",
    "wall-clock-allow": "wall_clock_allow",
}


def load_config(pyproject: Path | None = None) -> LintConfig:
    """Build a :class:`LintConfig` from ``[tool.repro-lint]``.

    ``pyproject`` defaults to the nearest one upward from the working
    directory.  Raises ``ValueError`` when there is no such file or
    section, or when the section holds a key the engine does not know.
    """
    # Imported here: ``repro.cli`` imports this module to build its
    # parser, and only ``lint`` should need a TOML parser.
    try:
        import tomllib
    except ImportError:  # Python 3.10; pytest depends on tomli there.
        import tomli as tomllib  # type: ignore[no-redef]
    if pyproject is None:
        pyproject = find_pyproject()
    if pyproject is None or not pyproject.is_file():
        raise ValueError("no pyproject.toml here or in any parent directory")
    with pyproject.open("rb") as fh:
        section = tomllib.load(fh).get("tool", {}).get("repro-lint")
    if section is None:
        raise ValueError(f"{pyproject} has no [tool.repro-lint] section")
    fields: dict[str, object] = {}
    for key, value in section.items():
        if key in _LIST_KEYS:
            fields[_LIST_KEYS[key]] = _tuple(value)
        elif key == "memo-pairings":
            fields["memo_pairings"] = tuple(
                MemoPairing(
                    module=str(entry["module"]),
                    cls=str(entry.get("class", "*")),
                    mutators=_tuple(entry["mutators"]),
                    require=_tuple(entry["require"]),
                )
                for entry in _entries(
                    value, key, {"module", "class", "mutators", "require"},
                    pyproject))
        elif key == "flow-call-pairs":
            fields["flow_call_pairs"] = tuple(
                CallPair(open=str(entry["open"]), close=str(entry["close"]))
                for entry in _entries(value, key, {"open", "close"},
                                      pyproject))
        else:
            raise ValueError(
                f"unknown [tool.repro-lint] key {key!r} in {pyproject}")
    return LintConfig(**fields)  # type: ignore[arg-type]
