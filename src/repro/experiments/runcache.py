"""Content-addressed, on-disk memoization of experiment runs.

A figure sweep is dozens of independent ``(scheme, ratio, seed)``
simulations, and users re-run the same sweeps constantly — after a doc
edit, to print a table again, to extend a grid by one point.  This
module makes re-execution cheap: every completed
:class:`~repro.experiments.runner.RunResult` is stored on disk under a
key that is a stable hash of the *fully resolved run inputs*, so an
unchanged run is a pure cache hit and a changed point re-simulates only
itself (resumable sweeps).

Key derivation (see :func:`run_key`) covers everything the simulation
can observe:

* the :class:`~repro.net.topology.FatTreeSpec` (every field),
* scheme name + canonicalized scheme kwargs,
* the trace **content** — a digest of the materialized flow list, so a
  :class:`~repro.traces.spec.TraceSpec`-carrying job and a
  flows-carrying job of the same workload share an entry,
* the VM count, cache ratio, seed, transport config and horizon,
* :data:`SCHEMA_VERSION`, a manually bumped constant that must change
  whenever simulated *behaviour* changes (the golden-snapshot test in
  ``tests/test_determinism.py`` is the tripwire for forgetting).

Keying uses only deterministic inputs — never the wall clock, a global
RNG, process ids or dict iteration order — so the same run always maps
to the same entry on any machine.

Storage layout: ``<root>/<key[:2]>/<key>.json``, one JSON document per
entry, written atomically (temp file + ``os.replace``).  Corrupted or
stale-schema entries are treated as misses and deleted.  Environment
switches: ``REPRO_RUNCACHE=0`` disables the default cache entirely and
``REPRO_RUNCACHE_DIR`` relocates it (default:
``$XDG_CACHE_HOME/repro/runcache`` or ``~/.cache/repro/runcache``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import os
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING

from repro.traces.spec import TraceSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runner imports us)
    from repro.experiments.runner import RunResult

#: Bump whenever a code change alters simulated behaviour (event
#: ordering, float arithmetic, RNG consumption, new RunResult fields).
#: Old entries then miss and are rebuilt instead of serving stale data.
#: 2: RunResult gained failed_flows / failure_reasons.
#: 3: hybrid-fidelity engine — RunResult gained fidelity + fluid_*
#: fields and run keys carry the fidelity knob.
SCHEMA_VERSION = 3

_ENV_FLAG = "REPRO_RUNCACHE"
_ENV_DIR = "REPRO_RUNCACHE_DIR"
_DISABLED_VALUES = ("0", "off", "no", "false")

#: Fields of RunResult that never serialize (live simulation objects).
_LIVE_FIELDS = ("collector", "network")


# ----------------------------------------------------------------------
# Canonical encoding shared by key derivation and ExperimentJob hygiene
# ----------------------------------------------------------------------
def freeze_value(value):
    """Recursively convert ``value`` into a hashable, canonical form.

    Dicts become sorted ``("__map__", ((k, v), ...))`` tuples and lists
    become tuples; scalars and frozen dataclasses pass through.  The
    result is deterministic regardless of insertion order.
    """
    if isinstance(value, dict):
        return ("__map__", tuple(sorted((str(k), freeze_value(v))
                                        for k, v in value.items())))
    if isinstance(value, (list, tuple)):
        return tuple(freeze_value(v) for v in value)
    return value


def thaw_value(value):
    """Invert :func:`freeze_value` (maps come back as dicts)."""
    if isinstance(value, tuple):
        if len(value) == 2 and value[0] == "__map__":
            return {k: thaw_value(v) for k, v in value[1]}
        return tuple(thaw_value(v) for v in value)
    return value


def canonical_items(mapping) -> tuple:
    """A dict (or item sequence) as a sorted, hashable item tuple."""
    if not mapping:
        return ()
    if not isinstance(mapping, dict):
        mapping = dict(mapping)
    return tuple(sorted((str(k), freeze_value(v)) for k, v in mapping.items()))


def kwargs_dict(items) -> dict:
    """Canonical item tuple back to a plain kwargs dict."""
    return {key: thaw_value(value) for key, value in items}


@lru_cache(maxsize=None)
def _keyed_fields(cls: type) -> tuple[str, ...]:
    """Sorted field names of a dataclass type :func:`_encode` hashes.

    Iterating the fields keys every knob only while the class is frozen
    (a value cannot change after it was keyed) and every class attribute
    is annotated (an unannotated one is not a field and would drop out
    of the hash silently).  Checked here, once per type, for every type
    that reaches a key.
    """
    if not cls.__dataclass_params__.frozen:
        raise TypeError(
            f"{cls.__qualname__} is hashed into run-cache keys and must "
            "be a frozen dataclass (@dataclass(frozen=True))")
    for klass in cls.__mro__[:-1]:
        annotated = inspect.get_annotations(klass)
        for name, attr in vars(klass).items():
            if not (name.startswith("__") or name in annotated
                    or hasattr(attr, "__get__")):
                raise TypeError(
                    f"{klass.__qualname__}.{name} has no annotation, so "
                    "it is not a dataclass field and would never reach "
                    "the run-cache key; annotate it (ClassVar if it is "
                    "not a knob)")
    return tuple(sorted(f.name for f in dataclasses.fields(cls)))


def _encode(value):
    """Canonical JSON-able encoding of run inputs for hashing.

    Floats are encoded via ``repr`` (exact round trip), dataclasses by
    qualified name + sorted fields, containers recursively.  Unknown
    types raise: silently ``str()``-ing an object would make the key
    depend on ``id()``/repr internals.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return ["f", repr(value)]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return ["dc", type(value).__qualname__,
                [[name, _encode(getattr(value, name))]
                 for name in _keyed_fields(type(value))]]
    if isinstance(value, (list, tuple)):
        return ["seq", [_encode(v) for v in value]]
    if isinstance(value, dict):
        return ["map", [[str(k), _encode(v)]
                        for k, v in sorted(value.items(),
                                           key=lambda kv: str(kv[0]))]]
    # numpy scalars (trace params sometimes carry them) normalize to
    # their Python equivalents; anything else is a keying bug.
    item = getattr(value, "item", None)
    if callable(item):
        return _encode(item())
    raise TypeError(f"cannot canonically encode {type(value).__name__} "
                    f"for run-cache keying: {value!r}")


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def flows_digest(flows) -> str:
    """Content digest of a materialized flow list.

    Memoized on the flow tuple's value: a sweep derives one key per
    grid point from the same flows, and encoding them dominates key
    derivation.  A repeat costs one hash of the (frozen) flow specs.
    """
    return _flow_tuple_digest(tuple(flows))


@lru_cache(maxsize=2)
def _flow_tuple_digest(flows: tuple) -> str:
    return _digest(["flows", [_encode(flow) for flow in flows]])


@lru_cache(maxsize=32)
def _trace_spec_digest(trace: TraceSpec) -> str:
    """Digest of a TraceSpec's *materialized* flows (memoized).

    Hashing the content rather than the spec makes spec-form and
    flows-form descriptions of the same workload share cache entries.
    """
    return flows_digest(trace.materialize())


def run_key(spec, scheme_name: str, num_vms: int, cache_ratio: float,
            seed: int, *, transport=None, horizon_ns: int | None = None,
            trace_name: str = "", scheme_kwargs=None,
            flows=None, trace: TraceSpec | None = None,
            fidelity: str = "packet") -> str:
    """The content address of one experiment run.

    Exactly one of ``flows`` (a materialized list) or ``trace`` (a
    :class:`TraceSpec`) describes the workload.
    """
    if (flows is None) == (trace is None):
        raise ValueError("run_key needs exactly one of flows= or trace=")
    if isinstance(scheme_kwargs, dict) or scheme_kwargs is None:
        kwargs_items = canonical_items(scheme_kwargs or {})
    else:
        kwargs_items = tuple(scheme_kwargs)
    payload = {
        "schema": SCHEMA_VERSION,
        "spec": _encode(spec),
        "scheme": scheme_name,
        "scheme_kwargs": _encode(list(kwargs_items)),
        "num_vms": int(num_vms),
        "cache_ratio": repr(float(cache_ratio)),
        "seed": int(seed),
        "transport": _encode(transport),
        "horizon_ns": None if horizon_ns is None else int(horizon_ns),
        "trace_name": trace_name,
        "fidelity": fidelity,
        "flows": (_trace_spec_digest(trace) if trace is not None
                  else flows_digest(flows)),
    }
    return _digest(payload)


def job_key(job) -> str:
    """The run key of an :class:`~repro.experiments.parallel.ExperimentJob`.

    Every field is forwarded under its own name, so one :func:`run_key`
    has no parameter for is a ``TypeError`` at the first keying, not a
    knob two different runs share an entry on.
    """
    return run_key(**{field.name: getattr(job, field.name)
                      for field in dataclasses.fields(job)})


# ----------------------------------------------------------------------
# The on-disk store
# ----------------------------------------------------------------------
@dataclasses.dataclass
class CacheStats:
    """Counters for one :class:`RunCache` instance's lifetime."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalid: int = 0


class RunCache:
    """A content-addressed store of serialized RunResults."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.stats = CacheStats()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> RunResult | None:
        """Look up ``key``; corrupted/stale entries count as misses."""
        path = self._path(key)
        try:
            text = path.read_text()
        except OSError:
            self.stats.misses += 1
            return None
        result = None
        try:
            result = _decode_result(json.loads(text), key)
        except (ValueError, KeyError, TypeError):
            result = None
        if result is None:
            # Corrupt, truncated, or written by an older schema: drop
            # the entry so it is rebuilt rather than retried forever.
            self.stats.invalid += 1
            self.stats.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats.hits += 1
        return result

    def put(self, key: str, result: RunResult) -> bool:
        """Store ``result`` atomically; refuses live-object results."""
        if result.collector is not None or result.network is not None:
            return False
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(_encode_result(result, key), sort_keys=True)
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        try:
            tmp.write_text(payload)
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass
            return False
        self.stats.stores += 1
        return True

    def entries(self) -> list[Path]:
        """All entry files currently in the store."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("??/*.json"))

    def size_bytes(self) -> int:
        return sum(path.stat().st_size for path in self.entries())

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


def _scalar(value):
    """JSON-ready scalar (numpy ints/floats normalize to Python)."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    raise TypeError(f"non-scalar RunResult field value: {value!r}")


def _encode_result(result, key: str) -> dict:
    payload = {}
    for field in dataclasses.fields(result):
        if field.name in _LIVE_FIELDS:
            continue
        value = getattr(result, field.name)
        if field.name == "pod_bytes":
            payload[field.name] = [int(b) for b in value]
        elif field.name in ("failure_reasons", "fluid_escalations_by_reason"):
            payload[field.name] = {str(k): int(v) for k, v in value.items()}
        else:
            payload[field.name] = _scalar(value)
    return {"schema": SCHEMA_VERSION, "key": key, "result": payload}


def _decode_result(payload: dict, key: str) -> RunResult | None:
    from repro.experiments.runner import RunResult

    if payload.get("schema") != SCHEMA_VERSION or payload.get("key") != key:
        return None
    data = payload["result"]
    expected = {f.name for f in dataclasses.fields(RunResult)} - set(_LIVE_FIELDS)
    if not isinstance(data, dict) or set(data) != expected:
        return None
    return RunResult(**data)


# ----------------------------------------------------------------------
# Default-cache resolution (environment controlled)
# ----------------------------------------------------------------------
_instances: dict[str, RunCache] = {}


def runcache_enabled() -> bool:
    """Whether the environment permits the default cache."""
    return os.environ.get(_ENV_FLAG, "1").strip().lower() not in _DISABLED_VALUES


def default_cache_dir() -> Path:
    """Default store location (overridable via ``REPRO_RUNCACHE_DIR``)."""
    env = os.environ.get(_ENV_DIR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "runcache"


def default_cache() -> RunCache | None:
    """The environment-configured cache, or None when disabled.

    Re-reads the environment on every call (tests repoint the
    directory freely) but reuses RunCache instances per root so hit
    counters accumulate across calls within a process.
    """
    if not runcache_enabled():
        return None
    root = str(default_cache_dir())
    instance = _instances.get(root)
    if instance is None:
        instance = _instances[root] = RunCache(root)
    return instance


def resolve_cache(cache) -> RunCache | None:
    """Normalize a ``cache`` argument: RunCache, None, or ``"auto"``."""
    if cache is None or cache is False:
        return None
    if isinstance(cache, RunCache):
        return cache
    if cache == "auto":
        return default_cache()
    raise TypeError(f"cache must be a RunCache, None, or 'auto'; got {cache!r}")
