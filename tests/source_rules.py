"""The repository's static checks: eight AST rules over one module each.

The simulator's results are only worth reproducing if a fixed seed gives
bit-identical numbers and if every change to cache, mapping or
gateway-pool state escalates the fluid flows that crossed it (lazy
invalidation and migration, paper §3.3, stay exact in hybrid mode only
then).  Both contracts fail silently at run time, so each rule below
turns one way of breaking them into a finding:

* D101 — no wall-clock read in simulation code;
* D102 — every draw comes from a generator seeded by ``derive_seed``;
* D103 — no order-sensitive iteration over a set;
* D110 — the fluid module mutates simulator state only on its audited
  walk / commit / escalate / adopt / reinject / install paths;
* R303 — a memo-table mutator references the memo's invalidation;
* R304 — fault state (a link's ``up`` / ``_loss_rng``, a switch's
  ``_failed`` / ``_slow_ns``) is written only by its own methods;
* W402 — the function that writes cache, mapping or gateway-pool state
  fires the escalation hook or mutation observer in its own body;
* W404 — a function that calls ``gc.disable`` calls ``gc.enable`` too.

Each rule is a function of a parsed module and its dotted name that
yields ``(line, message)`` pairs; ``tests/test_source_rules.py`` runs
them over every file under ``src/`` and ``benchmarks/`` and wants none.
Their scope is the literals below: an exemption is an edit to one of
them, reviewed like any other change, and there is no comment syntax.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import Path

Findings = Iterator[tuple[int, str]]

#: The package whose modules are simulation code (D101, D103 and the
#: seeding half of D102 apply only there).
SIM_PACKAGE = "repro"
#: The one module that may read the host clock.
WALL_CLOCK_MODULE = "repro.perf"
#: The one module that turns raw seeds into streams.
STREAM_FACTORY = "repro.sim.randomness"
#: The modules D110 holds to the audited mutation paths.
FLUID_PATH_MODULES = ("repro.sim.fluid",)
#: R303: (module, class, mutators, identifiers each mutator references).
MEMO_PAIRINGS = (
    ("repro.net.node", "Switch", ("fail", "recover"),
     ("note_fault", "_flush_scheme_state")),
    ("repro.net.topology", "Fabric", ("note_fault",), ("_route_memo", "guard")),
    ("repro.net.topology", "Fabric", ("set_link_state",), ("note_fault",)),
)
#: R304: the fault-state attributes, and the (module, class, method)
#: that alone may write them — each does the fault accounting that puts
#: every switch on its guarded body.
FAULT_STATE = frozenset({"up", "_failed", "_slow_ns", "_loss_rng"})
FAULT_WRITERS = (
    ("repro.net.link", "Link", "__init__"),
    ("repro.net.link", "Link", "set_loss"),
    ("repro.net.topology", "Fabric", "set_link_state"),
    ("repro.net.node", "Switch", "__init__"),
    ("repro.net.node", "Switch", "fail"),
    ("repro.net.node", "Switch", "recover"),
    ("repro.net.node", "Switch", "set_slowdown"),
)
#: W404: (open, close) calls that pair up inside one function.
CALL_PAIRS = (("gc.disable", "gc.enable"),)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def module_name_for(path: Path) -> str:
    """Dotted module name of a repository-relative ``path``.

    ``src/repro/net/node.py`` -> ``repro.net.node``;
    ``benchmarks/common.py`` -> ``benchmarks.common``; a package
    ``__init__.py`` maps to the package itself.
    """
    parts = list(path.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    if parts[0] == "src":
        parts.pop(0)
    return ".".join(parts)


class ImportResolver(ast.NodeVisitor):
    """Map local names to the dotted path they were imported from."""

    def __init__(self, tree: ast.Module) -> None:
        #: local alias -> dotted origin ("np" -> "numpy",
        #: "pc" -> "time.perf_counter").
        self.origins: dict[str, str] = {}
        self.visit(tree)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            # "import a.b" binds "a"; "import a.b as c" binds "c" = a.b.
            local = alias.asname or alias.name.split(".", 1)[0]
            self.origins[local] = alias.name if alias.asname else local

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level or node.module is None:
            return  # relative imports never reach stdlib time/random
        for alias in node.names:
            self.origins[alias.asname or alias.name] = \
                f"{node.module}.{alias.name}"

    def resolve(self, node: ast.expr) -> str | None:
        """Dotted origin of a Name/Attribute chain, or None.

        ``np.random.shuffle`` resolves to ``numpy.random.shuffle`` when
        ``np`` was imported as numpy; an unimported base name resolves
        to the chain itself.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(self.origins.get(node.id, node.id))
        return ".".join(reversed(parts))


#: Nodes that open a new binding scope.
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def scope_walk(root: ast.AST) -> Iterator[ast.AST]:
    """Walk ``root``'s subtree without descending into nested scopes
    (the root itself is yielded even if it is a function)."""
    stack: list[ast.AST] = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(child for child in ast.iter_child_nodes(node)
                     if not isinstance(child, _SCOPE_NODES))


def nested_scopes(root: ast.AST) -> Iterator[ast.AST]:
    """The function/lambda scopes immediately nested in ``root``'s."""
    stack: list[ast.AST] = [root]
    while stack:
        for child in ast.iter_child_nodes(stack.pop()):
            if isinstance(child, _SCOPE_NODES):
                yield child
            else:
                stack.append(child)


def call_name(node: ast.Call) -> str | None:
    """The terminal name of a call target (``a.b.c()`` -> ``"c"``)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _in_sim_package(module: str) -> bool:
    return module == SIM_PACKAGE or module.startswith(SIM_PACKAGE + ".")


def _functions(tree: ast.AST) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    return (node for node in ast.walk(tree)
            if isinstance(node, _FUNCTION_NODES))


# ----------------------------------------------------------------------
# D101-D103: determinism
# ----------------------------------------------------------------------
#: Dotted call targets that read the host's clock.
WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "time.clock_gettime", "time.clock_gettime_ns",
    "time.localtime", "time.gmtime", "time.ctime", "time.asctime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})


def d101(tree: ast.Module, module: str) -> Findings:
    """Simulation code must not read the wall clock: simulated time is
    ``Engine.now``, and host timing belongs in ``repro.perf``."""
    if not _in_sim_package(module) or module == WALL_CLOCK_MODULE:
        return
    imports = ImportResolver(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) \
                and (target := imports.resolve(node.func)) in WALL_CLOCK_CALLS:
            yield node.lineno, (
                f"call to {target}() reads the wall clock; simulation code "
                "must use the engine's integer-ns clock (Engine.now) — host "
                "timing belongs in repro.perf")


#: ``numpy.random`` attributes that build a generator object; every
#: other ``numpy.random.*`` call draws from the module's hidden state.
_NUMPY_FACTORIES = frozenset({
    "default_rng", "Generator", "SeedSequence", "PCG64", "PCG64DXSM",
    "Philox", "MT19937", "RandomState"})
#: Generator constructors whose seed must come from ``derive_seed``.
_RNG_CONSTRUCTORS = frozenset({
    "random.Random", "random.SystemRandom",
    "numpy.random.default_rng", "numpy.random.RandomState"})


def d102(tree: ast.Module, module: str) -> Findings:
    """No global-RNG call anywhere, no generator without a seed, and in
    simulation code no generator seeded from anything but
    ``derive_seed`` (the raw experiment seed would share its stream
    with every other consumer of the same root seed)."""
    imports = ImportResolver(tree)
    derives = _in_sim_package(module) and module != STREAM_FACTORY

    def derived(arg: ast.expr) -> bool:
        return any(isinstance(sub, ast.Call)
                   and (imports.resolve(sub.func) or "").endswith("derive_seed")
                   for sub in ast.walk(arg))

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        target = imports.resolve(node.func)
        if target is None:
            continue
        if target in _RNG_CONSTRUCTORS:
            seeds = (*node.args, *(kw.value for kw in node.keywords))
            if not seeds:
                yield node.lineno, (
                    f"{target}() without a seed is entropy-seeded and breaks "
                    "reproducibility; pass an explicit seed (ideally via "
                    "RandomStreams)")
            elif derives and not any(derived(arg) for arg in seeds):
                yield node.lineno, (
                    f"{target}() is not seeded from derive_seed(); seed it "
                    "with repro.sim.randomness.derive_seed(seed, name) or "
                    "take a stream from RandomStreams")
        elif target == "random" or target.startswith("random."):
            yield node.lineno, (
                f"call to {target}() uses the stdlib's hidden global RNG; "
                "draw from a named RandomStreams stream instead")
        elif target.startswith("numpy.random.") \
                and target.rsplit(".", 1)[1] not in _NUMPY_FACTORIES:
            yield node.lineno, (
                f"call to {target}() hits numpy's hidden global RNG state; "
                "use a Generator from RandomStreams.stream(name) instead")


#: Consumers whose result depends on the order their input is iterated
#: (``min``/``max``/``sum``/``len``/``any``/``all`` are not).
_ORDER_SENSITIVE_CALLS = frozenset({"list", "tuple", "enumerate", "iter",
                                    "reversed"})
_ORDER_SENSITIVE_METHODS = frozenset({"join", "extend"})
_SET_METHODS = frozenset({"union", "intersection", "difference",
                          "symmetric_difference", "copy"})
_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


def _is_set_expr(node: ast.expr, set_names: frozenset[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id in ("set", "frozenset")
        return (isinstance(func, ast.Attribute) and func.attr in _SET_METHODS
                and _is_set_expr(func.value, set_names))
    return (isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS)
            and (_is_set_expr(node.left, set_names)
                 or _is_set_expr(node.right, set_names)))


def _set_iterations(scope: ast.AST,
                    outer: frozenset[str]) -> Iterator[ast.expr]:
    """Set expressions ``scope`` (and the scopes nested in it) iterate
    in an order-sensitive position.  A name counts as a set when every
    assignment to it in its scope assigns one."""
    sets: set[str] = set()
    others: set[str] = set()
    for node in scope_walk(scope):
        if isinstance(node, ast.Assign):
            kind = sets if _is_set_expr(node.value, outer) else others
            kind.update(target.id for target in node.targets
                        if isinstance(target, ast.Name))
    names = frozenset((outer | sets) - others)
    for node in scope_walk(scope):
        if isinstance(node, ast.For):
            candidates = [node.iter]
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            candidates = [comp.iter for comp in node.generators]
        elif isinstance(node, ast.Call) and (
                call_name(node) in (_ORDER_SENSITIVE_CALLS
                                    if isinstance(node.func, ast.Name)
                                    else _ORDER_SENSITIVE_METHODS)):
            candidates = node.args
        else:
            continue
        yield from (expr for expr in candidates if _is_set_expr(expr, names))
    for nested in nested_scopes(scope):
        yield from _set_iterations(nested, names)


def d103(tree: ast.Module, module: str) -> Findings:
    """No order-sensitive iteration over a set in simulation or
    benchmark code: set order varies with hash seeding and build."""
    if not (_in_sim_package(module) or module.startswith("benchmarks")):
        return
    for expr in _set_iterations(tree, frozenset()):
        yield expr.lineno, (
            "iterating a set in an order-sensitive position; set order is "
            "not part of the language contract (and varies with "
            "PYTHONHASHSEED for str/tuple elements) — wrap in sorted()")


# ----------------------------------------------------------------------
# D110 and W402: the fluid engine's contracts
# ----------------------------------------------------------------------
#: Function-name prefixes (after leading underscores) of the audited
#: mutation paths; everything nested in them may touch simulator state.
_AUDITED_PREFIXES = ("walk", "commit", "escalate", "adopt", "reinject",
                     "install")
#: Attribute roots a non-audited function may still assign through: its
#: own object and the fluid bookkeeping records.
_LOCAL_ROOTS = frozenset({"self", "cls", "flow", "ctx"})
#: Method names that mutate cache contents.
_CACHE_MUTATORS = frozenset({"insert", "invalidate", "clear"})


def _unaudited_statements(body: list[ast.stmt]) -> Iterator[ast.stmt]:
    """Statements of ``body`` outside every audited function, class
    bodies and non-audited nested functions included."""
    for stmt in body:
        if isinstance(stmt, _FUNCTION_NODES):
            if not stmt.name.lstrip("_").startswith(_AUDITED_PREFIXES):
                yield from _unaudited_statements(stmt.body)
        elif isinstance(stmt, ast.ClassDef):
            yield from _unaudited_statements(stmt.body)
        else:
            yield stmt


def _store_root(node: ast.expr) -> str | None:
    """The root ``Name`` of an attribute/subscript assignment target."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def d110(tree: ast.Module, module: str) -> Findings:
    """The fluid module writes simulator state only on its audited
    paths, where escalation and path invalidation account for it."""
    if module not in FLUID_PATH_MODULES:
        return
    for node in (node for stmt in _unaudited_statements(tree.body)
                 for node in ast.walk(stmt)):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                root = _store_root(target)
                if isinstance(target, (ast.Attribute, ast.Subscript)) \
                        and root not in _LOCAL_ROOTS:
                    yield target.lineno, (
                        f"assignment through {root or 'an expression'} "
                        "mutates simulator state outside an audited fluid "
                        "path; move it into a walk/commit/escalate/adopt/"
                        "reinject helper so the escalation hooks observe it")
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _CACHE_MUTATORS:
                yield node.lineno, (
                    f".{node.func.attr}() call outside an audited fluid "
                    "path; cache mutations must flow through walk/commit/"
                    "escalate paths where on_mutate escalation is "
                    "accounted for")
            elif isinstance(node.func, ast.Name) and node.func.id == "setattr":
                yield node.lineno, (
                    "setattr() outside an audited fluid path writes "
                    "simulator state the escalation hooks cannot see")


#: Attribute names holding cache/mapping/gateway-pool state.
STATE_ATTRS = frozenset({"_keys", "_values", "_abits", "_sets", "_table",
                         "live_gateways"})
#: Calls that count as escalation/observer notification, besides any
#: ``escalate_*``.
NOTIFY_CALLS = frozenset({"on_mutate", "note_mutation"})
#: Attributes whose stored callables are notification hooks; calling
#: one, or a local aliased from one (``cb = self.on_mutate; cb()``),
#: counts.
NOTIFY_ATTRS = frozenset({"on_mutate", "_listeners"})
#: Container-method names treated as mutating their receiver.
MUTATING_METHODS = frozenset({
    "pop", "popitem", "clear", "update", "setdefault", "append", "extend",
    "remove", "insert", "add", "discard", "move_to_end"})

_HOOK = "<hook>"
_TRACKED = (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.Delete, ast.For,
            ast.Call)


def _aliased(node: ast.expr | None, env: dict[str, str | None]) -> str | None:
    """What an expression is, or goes through: a ``STATE_ATTRS`` name,
    ``_HOOK`` for a ``NOTIFY_ATTRS`` callable (or list of them), or
    ``None``.  Follows attribute/subscript chains down to a local, or
    to a call of a helper ``env`` lists (as ``"name()"``) as returning
    state."""
    names = []
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            names.append(node.attr)
        node = node.value
    for name in names:
        if name in STATE_ATTRS:
            return name
    if not NOTIFY_ATTRS.isdisjoint(names):
        return _HOOK
    if isinstance(node, ast.Call):
        return env.get(f"{call_name(node)}()")
    return env.get(node.id) if isinstance(node, ast.Name) else None


def _notifies(call: ast.Call, env: dict[str, str | None]) -> bool:
    func = call.func
    if isinstance(func, ast.Name) and env.get(func.id) == _HOOK:
        return True
    if isinstance(func, ast.Attribute) and func.attr in NOTIFY_ATTRS:
        return True
    name = call_name(call) or ""
    return name in NOTIFY_CALLS or name.startswith("escalate_")


def _unnotified_writes(function: ast.AST,
                       helpers: dict[str, str]) -> list[tuple[ast.expr, str]]:
    """The state writes of ``function`` (closures included), or none
    if it also notifies."""
    env: dict[str, str | None] = dict(helpers)
    writes: list[tuple[ast.expr, str]] = []
    notifies = False

    def touch(target: ast.expr) -> None:
        attr = _aliased(target, env)
        if attr is not None and attr != _HOOK:
            writes.append((target, attr))

    def store(target: ast.expr, origin: str | None = None) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = origin
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                store(element)
        else:
            touch(target)

    # Source order, so that a local is bound before its uses are looked
    # at; loops are seen once.
    for node in sorted(
            (n for n in ast.walk(function) if isinstance(n, _TRACKED)),
            key=lambda n: (n.lineno, n.col_offset)):
        if isinstance(node, ast.Call):
            notifies = notifies or _notifies(node, env)
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr in MUTATING_METHODS:
                touch(node.func.value)
        elif isinstance(node, ast.For):
            store(node.target, _aliased(node.iter, env))
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                store(target)
        else:  # Assign / AnnAssign bind; AugAssign only stores.
            origin = (None if isinstance(node, ast.AugAssign)
                      else _aliased(node.value, env))
            for target in getattr(node, "targets", None) or [node.target]:
                store(target, origin)
    return [] if notifies else writes


def w402(tree: ast.Module, module: str) -> Findings:
    """Whoever writes cache/mapping/gateway-pool state notifies: a
    function other than ``__init__`` that writes such state fires
    ``on_mutate``, an ``escalate_*`` or its listeners in its own body —
    not its caller, not a callee.  A closure is part of the function
    that defines it."""
    # This file's helpers that hand out state (``return self._sets[i]``):
    # what they return is an alias like any other.
    helpers = {f"{function.name}()": attr
               for function in _functions(tree)
               for node in scope_walk(function)
               if isinstance(node, ast.Return)
               and (attr := _aliased(node.value, {})) in STATE_ATTRS}
    stack: list[ast.AST] = [tree]
    while stack:
        for child in ast.iter_child_nodes(stack.pop()):
            if not isinstance(child, _FUNCTION_NODES):
                stack.append(child)
            elif child.name != "__init__" \
                    and (writes := _unnotified_writes(child, helpers)):
                attrs = ", ".join(sorted({attr for _, attr in writes}))
                yield writes[0][0].lineno, (
                    f"{child.name}() writes state ({attrs}) and fires no "
                    "escalation hook or mutation observer in its own body; "
                    "whoever owns the state notifies: fire on_mutate/"
                    "escalate_*/the listeners here")


# ----------------------------------------------------------------------
# R303, R304 and W404: pairing and ownership
# ----------------------------------------------------------------------
def r303(tree: ast.Module, module: str) -> Findings:
    """Every mutator of memoized state references its invalidation; a
    pairing whose mutator is gone is reported as stale, so a rename
    cannot switch the check off."""
    classes = {node.name: node for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    for owner, cls, mutators, require in MEMO_PAIRINGS:
        if owner != module:
            continue
        methods = {item.name: item for item in getattr(classes.get(cls), "body", ())
                   if isinstance(item, _FUNCTION_NODES)}
        for name in mutators:
            method = methods.get(name)
            if method is None:
                yield 1, (f"memo pairing names {cls}.{name}(), which {module} "
                          "does not define; the pairing is stale — update "
                          "MEMO_PAIRINGS to follow the rename")
                continue
            idents = {node.id if isinstance(node, ast.Name) else node.attr
                      for node in ast.walk(method)
                      if isinstance(node, (ast.Name, ast.Attribute))}
            missing = [ident for ident in require if ident not in idents]
            if missing:
                yield method.lineno, (
                    f"mutator {cls}.{name}() does not reference "
                    f"{', '.join(missing)}; state it mutates is memoized and "
                    "must be invalidated here")


def r304(tree: ast.Module, module: str) -> Findings:
    """Fault state changes only through its methods: anywhere else in
    simulation code, an assignment (or ``setattr``) to an attribute
    named in ``FAULT_STATE`` skips the accounting that guards the
    switches, and the fault-free ``Switch.receive`` forwards through a
    dead link or switch."""
    if not _in_sim_package(module):
        return
    allowed = {(cls, method) for owner, cls, method in FAULT_WRITERS
               if owner == module}

    def writes(node: ast.AST) -> Iterator[tuple[int, str]]:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store) \
                    and sub.attr in FAULT_STATE:
                yield sub.lineno, sub.attr
            elif isinstance(sub, ast.Call) and call_name(sub) == "setattr" \
                    and len(sub.args) > 1 and isinstance(sub.args[1], ast.Constant) \
                    and sub.args[1].value in FAULT_STATE:
                yield sub.lineno, sub.args[1].value

    # Each top-level statement, and each statement of a class body, with
    # the (class, method) it belongs to.
    scopes = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            scopes += [(item, (node.name, getattr(item, "name", None)))
                       for item in node.body]
        else:
            scopes.append((node, (None, getattr(node, "name", None))))
    for node, (cls, method) in scopes:
        if (cls, method) in allowed:
            continue
        where = ".".join(part for part in (cls, method) if part) or "module level"
        for line, attr in writes(node):
            yield line, (
                f"{where} writes fault state .{attr}; change it only through "
                "Link.set_loss, Fabric.set_link_state or Switch.fail/recover/"
                "set_slowdown, which keep every switch's guard in step")


def w404(tree: ast.Module, module: str) -> Findings:
    """A function that opens a call pair closes it itself (try/finally),
    so no caller can leave it open; nested functions are functions of
    their own."""
    imports = ImportResolver(tree)
    for function in _functions(tree):
        calls = [(imports.resolve(node.func), node)
                 for node in scope_walk(function) if isinstance(node, ast.Call)]
        called = {target for target, _ in calls}
        for open_, close in CALL_PAIRS:
            if close not in called:
                for target, node in calls:
                    if target == open_:
                        yield node.lineno, (
                            f"{function.name}() calls {open_}() and never "
                            f"{close}(); pair them in one function "
                            "(try/finally) so no caller can leave it open")


RULES = {"D101": d101, "D102": d102, "D103": d103, "D110": d110,
         "R303": r303, "R304": r304, "W402": w402, "W404": w404}
