"""Lint configuration, loaded from ``[tool.repro-lint]`` in pyproject.toml.

Every knob has a default encoding this repository's invariants, so the
engine works with no configuration at all; the pyproject section exists
to adjust scope (paths, rule selection) and to declare the structural
memo-invalidation pairings the R303 rule enforces.

TOML parsing uses :mod:`tomllib` (Python 3.11+) and degrades gracefully
when no parser is available (Python 3.10 without ``tomli``): defaults
apply and a warning is printed, rather than making the lint CLI
unusable.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
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
class RuncacheCoverage:
    """One runcache key-coverage contract (rule W403).

    Attributes:
        dataclass_name: qualified name of a dataclass whose fields feed
            experiment runs (``module.Class``).
        key_function: qualified name of the function deriving the
            run-cache key from that dataclass; every field name must be
            read somewhere in its body.
        exempt: field names audited as deliberately unkeyed (each must
            be justified in docs/linting.md); an exemption naming a
            field that *is* consumed is itself reported as stale.
    """

    dataclass_name: str
    key_function: str
    exempt: tuple[str, ...] = ()


@dataclass(frozen=True)
class CallPair:
    """One must-pair call discipline checked along call paths (W404).

    A function that (directly) calls ``open`` must also reach ``close``
    — in its own body or transitively through its callees; failing
    that, the obligation propagates to its callers.  Names are fnmatch
    patterns matched against the resolved dotted call target.
    """

    open: str
    close: str


#: The repository's own key-coverage contracts (see docs/linting.md#w403).
DEFAULT_RUNCACHE_COVERAGE: tuple[RuncacheCoverage, ...] = (
    # Every ExperimentJob field must reach job_key: a job knob missing
    # from the key would serve stale cache hits for changed runs.
    RuncacheCoverage("repro.experiments.parallel.ExperimentJob",
                     "repro.experiments.runcache.job_key"),
    # NetworkConfig fields must be covered by run_key or be audited as
    # unreachable from run_experiment (the only cached entry point).
    RuncacheCoverage(
        "repro.vnet.network.NetworkConfig",
        "repro.experiments.runcache.run_key",
        exempt=("gateway_processing_ns", "gateway_service_ns",
                "host_forward_delay_ns", "gateway_probe_interval_ns",
                "gateway_reinstate_timeout_ns")),
)

#: Dataclasses hashed wholesale by runcache._encode (field iteration):
#: coverage is automatic *provided* every knob is a real dataclass
#: field — W403 checks they stay frozen and fully annotated.
DEFAULT_ENCODED_DATACLASSES: tuple[str, ...] = (
    "repro.net.topology.FatTreeSpec",
    "repro.core.config.SwitchV2PConfig",
    "repro.transport.reliable.TransportConfig",
    "repro.traces.spec.TraceSpec",
)

#: Call disciplines checked along call paths by W404.
DEFAULT_CALL_PAIRS: tuple[CallPair, ...] = (
    # The engine pauses automatic GC for the event loop; every pause
    # must be matched by a resume on all paths out of the caller.
    CallPair("gc.disable", "gc.enable"),
)

#: The repository's own memo invariants (see docs/linting.md#r303).
DEFAULT_MEMO_PAIRINGS: tuple[MemoPairing, ...] = (
    # Switch fail/recover must flush scheme SRAM state and keep the
    # fabric's fault count (which gates ECMP memo trust) in sync.
    MemoPairing("repro.net.node", "Switch", ("fail", "recover"),
                ("note_fault", "_flush_scheme_state")),
    # Every fault transition must flush the per-switch routing memos:
    # memoized ECMP choices are only valid on a fault-free fabric, and
    # Switch.receive reads both memos without a fault test.
    MemoPairing("repro.net.topology", "Fabric", ("note_fault",),
                ("_ecmp_memo", "_route_memo")),
    MemoPairing("repro.net.topology", "Fabric", ("set_link_state",),
                ("note_fault",)),
    # Gateway-pool mutations must clear the per-flow gateway memo.
    MemoPairing("repro.vnet.network", "VirtualNetwork",
                ("mark_gateway_down", "mark_gateway_up",
                 "commission_gateway", "decommission_gateway"),
                ("_gateway_memo",)),
)


@dataclass(frozen=True)
class LintConfig:
    """Engine configuration (defaults encode this repo's conventions)."""

    #: Directories/files linted when the CLI gets no path arguments.
    paths: tuple[str, ...] = ("src", "benchmarks")
    #: Rule ids to run (empty = every registered rule).
    select: tuple[str, ...] = ()
    #: Rule ids to skip.
    ignore: tuple[str, ...] = ()
    #: Packages whose modules carry simulation semantics; rules scoped
    #: to simulation code (D101, T202, R303) only fire inside these.
    sim_packages: tuple[str, ...] = ("repro",)
    #: Modules allowed to read the wall clock (fnmatch patterns).
    wall_clock_allow: tuple[str, ...] = ("repro.perf",)
    #: Modules allowed to keep float time values (reporting/means).
    float_time_allow: tuple[str, ...] = (
        "repro.perf", "repro.metrics.*", "repro.experiments.*")
    #: Method names whose first argument is a simulation time/delay.
    time_apis: tuple[str, ...] = ("schedule", "schedule_after",
                                  "schedule_timer")
    #: Calls treated as producing integer time (not descended into).
    time_converters: tuple[str, ...] = ("int", "round", "usec", "msec",
                                        "len")
    #: numpy.random attributes that are deterministic factories (all
    #: other numpy.random calls hit hidden global state).
    rng_factories: tuple[str, ...] = (
        "default_rng", "Generator", "SeedSequence", "PCG64", "PCG64DXSM",
        "Philox", "MT19937", "RandomState")
    memo_pairings: tuple[MemoPairing, ...] = DEFAULT_MEMO_PAIRINGS

    # ------------------------------------------------------------------
    # whole-program flow analysis (W401-W404; repro.analysis.flow)
    # ------------------------------------------------------------------
    #: Data-plane entry points (fnmatch on qualified function names);
    #: W402 checks every function reachable from them.
    #: A switch calls its scheme through a bound hook (a closure or a
    #: ``partial`` the call graph cannot see through), so the functions
    #: that build or are the hooks are roots in their own right.
    flow_entry_points: tuple[str, ...] = (
        "repro.net.node.Switch.receive",
        "repro.vnet.hypervisor.Host.receive",
        "repro.vnet.gateway.Gateway.receive",
        "repro.*.bind_hook",
        "repro.*.on_switch",
    )
    #: Attribute names holding cache/mapping/gateway state; mutating
    #: them on a data-plane path requires an escalation notification.
    state_attrs: tuple[str, ...] = ("_keys", "_values", "_abits", "_sets",
                                    "_table", "live_gateways")
    #: Call-name patterns that count as escalation/observer notification.
    notify_calls: tuple[str, ...] = ("escalate_*", "on_mutate",
                                     "note_mutation")
    #: Attributes whose stored callables are notification hooks; calling
    #: a local aliased from one (``cb = self.on_mutate; cb()``) counts.
    notify_attrs: tuple[str, ...] = ("on_mutate", "_listeners",
                                     "_removal_listeners",
                                     "learning_draw_observer")
    #: Qualified-name patterns exempt from W402 (audited in
    #: docs/linting.md#w402; keep this list as short as you can).
    #: Empty: the one cache core fires ``on_mutate`` from the bodies
    #: that mutate, so nothing on the data plane needs excusing.
    escalation_exempt: tuple[str, ...] = ()
    #: Container-method names treated as mutating their receiver.
    mutating_methods: tuple[str, ...] = (
        "pop", "popitem", "clear", "update", "setdefault", "append",
        "extend", "remove", "insert", "add", "discard", "move_to_end")
    #: Call patterns granting seed provenance: an RNG constructed from
    #: one of these is properly derived from the experiment seed.
    rng_seed_sources: tuple[str, ...] = ("*derive_seed", "*.stream",
                                         "repro.sim.randomness.*")
    #: Modules allowed to construct RNGs from raw material (the stream
    #: factory itself).
    rng_provenance_allow: tuple[str, ...] = ("repro.sim.randomness",)
    #: W403 key-coverage contracts and wholesale-encoded dataclasses.
    runcache_coverage: tuple[RuncacheCoverage, ...] = \
        DEFAULT_RUNCACHE_COVERAGE
    encoded_dataclasses: tuple[str, ...] = DEFAULT_ENCODED_DATACLASSES
    #: W404 open/close call pairs checked along call paths.
    flow_call_pairs: tuple[CallPair, ...] = DEFAULT_CALL_PAIRS


def _load_toml(path: Path) -> dict | None:
    try:
        import tomllib
    except ImportError:  # Python 3.10: tomllib landed in 3.11.
        try:
            import tomli as tomllib  # type: ignore[no-redef]
        except ImportError:
            print(f"repro-lint: no TOML parser available; ignoring {path} "
                  "and using built-in defaults", file=sys.stderr)
            return None
    with path.open("rb") as fh:
        return tomllib.load(fh)


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


def load_config(pyproject: Path | None = None) -> LintConfig:
    """Build a :class:`LintConfig` from ``[tool.repro-lint]``.

    Missing file, missing section, or missing TOML parser all yield the
    defaults; unknown keys are rejected loudly so typos in the config
    cannot silently disable a rule.
    """
    config = LintConfig()
    if pyproject is None:
        pyproject = find_pyproject()
    if pyproject is None or not pyproject.is_file():
        return config
    data = _load_toml(pyproject)
    if data is None:
        return config
    section = data.get("tool", {}).get("repro-lint")
    if section is None:
        return config

    simple_keys = {
        "paths": "paths",
        "select": "select",
        "ignore": "ignore",
        "sim-packages": "sim_packages",
        "wall-clock-allow": "wall_clock_allow",
        "float-time-allow": "float_time_allow",
        "time-apis": "time_apis",
        "time-converters": "time_converters",
        "rng-factories": "rng_factories",
        "flow-entry-points": "flow_entry_points",
        "state-attrs": "state_attrs",
        "notify-calls": "notify_calls",
        "notify-attrs": "notify_attrs",
        "escalation-exempt": "escalation_exempt",
        "mutating-methods": "mutating_methods",
        "rng-seed-sources": "rng_seed_sources",
        "rng-provenance-allow": "rng_provenance_allow",
        "encoded-dataclasses": "encoded_dataclasses",
    }
    overrides: dict[str, object] = {}
    for key, value in section.items():
        if key in simple_keys:
            overrides[simple_keys[key]] = _tuple(value)
        elif key == "memo-pairings":
            overrides["memo_pairings"] = tuple(
                MemoPairing(
                    module=str(entry["module"]),
                    cls=str(entry.get("class", "*")),
                    mutators=_tuple(entry["mutators"]),
                    require=_tuple(entry["require"]),
                )
                for entry in value)
        elif key == "runcache-coverage":
            overrides["runcache_coverage"] = tuple(
                RuncacheCoverage(
                    dataclass_name=str(entry["dataclass"]),
                    key_function=str(entry["key-function"]),
                    exempt=_tuple(entry.get("exempt", ())),
                )
                for entry in value)
        elif key == "flow-call-pairs":
            overrides["flow_call_pairs"] = tuple(
                CallPair(open=str(entry["open"]), close=str(entry["close"]))
                for entry in value)
        else:
            raise ValueError(
                f"unknown [tool.repro-lint] key {key!r} in {pyproject}")
    return replace(config, **overrides)  # type: ignore[arg-type]
