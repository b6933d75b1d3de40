"""Effect extraction and the interprocedural fixed point.

Every function gets an **effect signature**: a subset of

* ``mutates-shared-state`` -- writes module-level state some other call
  can observe (the executor's parallel cells must never do this);
* ``reads-sim-state``     -- reads such state (ordering-sensitive);
* ``consumes-rng-stream`` -- draws from a random stream;
* ``sim-time-dependent``  -- touches the simulated clock
  (the ``.now`` property, ``._now``, ``peek()``);
* ``performs-io``         -- filesystem, stdout, wall clock, OS calls.

The empty signature is *pure* -- the property the scenario-lowering and
vectorization work will rely on.

Direct effects are syntactic facts gathered per function; the fixed
point then closes them over the call graph: a function carries every
effect of every callee.  Unresolved calls contribute effects through a
conservative external table (``open`` is IO, ``random.random`` consumes
RNG, an unknown attribute call contributes nothing).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.flow.contracts import FlowContracts
from repro.analysis.flow.graph import (FunctionInfo, ModuleInfo, PackageIndex,
                                       _dotted_name)

# -- the lattice -------------------------------------------------------------

MUTATES_SHARED = "mutates-shared-state"
READS_SIM_STATE = "reads-sim-state"
CONSUMES_RNG = "consumes-rng-stream"
SIM_TIME = "sim-time-dependent"
PERFORMS_IO = "performs-io"

#: Canonical ordering for byte-stable reports.
EFFECT_ORDER = (MUTATES_SHARED, READS_SIM_STATE, CONSUMES_RNG, SIM_TIME,
                PERFORMS_IO)


def ordered(effects: "frozenset[str]") -> "list[str]":
    return [e for e in EFFECT_ORDER if e in effects]


# -- external classification --------------------------------------------------

_IO_EXACT = frozenset({
    "open", "print", "input", "json.dump", "json.load", "os.urandom",
})
_IO_PREFIXES = ("os.", "sys.", "shutil.", "subprocess.", "socket.",
                "logging.", "tempfile.", "io.", "time.",
                "datetime.datetime.now", "datetime.datetime.utcnow",
                "datetime.date.today", "uuid.uuid1", "builtins.open")
_IO_EXEMPT_PREFIXES = ("os.path.", "os.fspath", "os.environ.get",
                       "sys.intern", "sys.maxsize", "time.struct_time")

#: Path-like IO method names (receiver type is rarely known statically).
_PATH_IO_METHODS = frozenset({
    "read_text", "write_text", "read_bytes", "write_bytes", "mkdir",
    "rmdir", "unlink", "touch", "rename", "iterdir", "glob", "rglob",
    "stat", "is_file", "is_dir", "exists", "resolve", "hardlink_to",
    "symlink_to", "samefile",
})

_RNG_PREFIXES = ("random.", "secrets.", "numpy.random.")
#: numpy.random constructors that are deterministic *when seeded*.
_SEEDED_OK = frozenset({
    "numpy.random.default_rng", "numpy.random.SeedSequence",
    "numpy.random.Generator", "numpy.random.PCG64", "numpy.random.Philox",
    "numpy.random.SFC64",
})

#: Methods whose result is an owned named stream, or a list of them:
#: ``RngRegistry.stream``/``streams`` and ``Generator.spawn``.
STREAM_FACTORIES = frozenset({"stream", "streams", "spawn"})

#: Generator sampling methods (a call to one *consumes* the stream).
RNG_SAMPLERS = frozenset({
    "random", "uniform", "normal", "standard_normal", "exponential",
    "standard_exponential", "integers", "choice", "shuffle", "permutation",
    "poisson", "geometric", "lognormal", "gamma", "beta", "binomial",
    "randint", "rand", "randn", "sample", "choices", "betavariate",
    "expovariate", "gauss",
})

_GLOBAL_MUTATORS = frozenset({
    "append", "add", "update", "extend", "insert", "remove", "pop",
    "popitem", "clear", "setdefault", "discard", "appendleft",
    "extendleft", "inc", "observe", "set",
})


def external_call_effect(name: str) -> "str | None":
    """Effect contributed by a call that resolves outside the package."""
    if name in _IO_EXACT:
        return PERFORMS_IO
    if name.startswith(_IO_EXEMPT_PREFIXES):
        return None
    if name in _SEEDED_OK:
        return None  # argument presence is checked at the call site
    if name.startswith(_IO_PREFIXES):
        return PERFORMS_IO
    if name.startswith(_RNG_PREFIXES):
        return CONSUMES_RNG
    if name.startswith("<unknown>."):
        attr = name.split(".", 1)[1]
        if attr in _PATH_IO_METHODS:
            return PERFORMS_IO
    return None


# -- direct-effect extraction --------------------------------------------------


def _local_bindings(func: ast.AST) -> "set[str]":
    """Names plainly assigned (bound) inside the function body."""
    bound: "set[str]" = set()
    args = func.args
    for arg in (list(args.posonlyargs) + list(args.args)
                + list(args.kwonlyargs)
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])):
        bound.add(arg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for t in ast.walk(node.target):
                if isinstance(t, ast.Name):
                    bound.add(t.id)
        elif isinstance(node, ast.comprehension):
            for t in ast.walk(node.target):
                if isinstance(t, ast.Name):
                    bound.add(t.id)
    return bound


def _rng_locals(func: ast.AST) -> "set[str]":
    """Names bound to a random stream: an rng-named parameter, a
    ``stream(...)``/``streams(...)``/``spawn(...)`` result, or an alias."""
    owned: "set[str]" = set()
    args = func.args
    for arg in (list(args.posonlyargs) + list(args.args)
                + list(args.kwonlyargs)):
        if "rng" in arg.arg.lower() or "random" in arg.arg.lower():
            owned.add(arg.arg)
    for _ in range(2):
        for node in ast.walk(func):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            from_stream = (isinstance(value, ast.Call)
                           and isinstance(value.func, ast.Attribute)
                           and value.func.attr in STREAM_FACTORIES)
            from_owned = (isinstance(value, ast.Name) and value.id in owned)
            if from_stream or from_owned:
                for target in node.targets:
                    for t in ast.walk(target):
                        if isinstance(t, ast.Name):
                            owned.add(t.id)
    return owned


def _is_rng_receiver(expr: ast.AST, owned: "set[str]") -> bool:
    """Whether a sampler call's receiver is recognisably a random stream."""
    if isinstance(expr, ast.Name):
        name = expr.id.lower()
        return expr.id in owned or "rng" in name or "random" in name
    if isinstance(expr, ast.Attribute):
        return "rng" in expr.attr.lower() or "random" in expr.attr.lower()
    return (isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr in STREAM_FACTORIES)


class _DirectEffectVisitor:
    """Single walk of one function body collecting its direct effects."""

    def __init__(self, index: PackageIndex, mod: ModuleInfo,
                 info: FunctionInfo) -> None:
        self.index = index
        self.mod = mod
        self.info = info
        self.found: "set[str]" = set()
        self.locals = _local_bindings(info.node)
        self.rng_owned = _rng_locals(info.node)
        self.declared_global: "set[str]" = set()
        #: ids of call targets (``ast.walk`` visits a call before them).
        self.called: "set[int]" = set()

    def _is_module_global(self, name: str) -> bool:
        if name in self.declared_global:
            return True
        if name in self.locals:
            return False
        return (name in self.mod.mutable_globals
                or f"{self.mod.name}.{name}" in self.index.shared_globals)

    def _register_shared(self, name: str) -> None:
        key = f"{self.mod.name}.{name}"
        self.index.shared_globals.setdefault(key, set()).add(
            self.info.qualname)

    def run(self) -> "set[str]":
        for node in ast.walk(self.info.node):
            self._visit(node)
        return self.found

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, ast.Global):
            self.declared_global.update(node.names)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            self._check_store(node)
        elif isinstance(node, ast.Call):
            self._check_call(node)
        elif isinstance(node, ast.Attribute):
            self._check_attribute(node)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            self._check_name_load(node)

    def _check_store(self, node) -> None:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        for target in targets:
            if isinstance(target, ast.Name):
                if target.id in self.declared_global:
                    self._register_shared(target.id)
                    self.found.add(MUTATES_SHARED)
            elif isinstance(target, ast.Subscript):
                base = target.value
                if (isinstance(base, ast.Name)
                        and self._is_module_global(base.id)):
                    self._register_shared(base.id)
                    self.found.add(MUTATES_SHARED)
            elif isinstance(target, ast.Attribute):
                base = target.value
                if isinstance(base, ast.Name):
                    resolved = self.index.resolve_name(self.mod, base.id)
                    if resolved in self.index.classes:
                        self.found.add(MUTATES_SHARED)
                if (isinstance(target, ast.Attribute)
                        and target.attr in ("now", "_now")):
                    self.found.add(SIM_TIME)

    def _check_call(self, node: ast.Call) -> None:
        func = node.func
        self.called.add(id(func))
        dotted = _dotted_name(func)
        if dotted is not None:
            resolved = self.index.resolve_name(self.mod, dotted)
            external = resolved if (
                resolved is not None
                and not resolved.startswith(self.index.package + ".")
            ) else (dotted if resolved is None else None)
            if external is not None:
                if (external in _SEEDED_OK
                        and not node.args and not node.keywords):
                    self.found.add(CONSUMES_RNG)
                    return
                effect = external_call_effect(external)
                if effect is not None:
                    self.found.add(effect)
                    return
        if isinstance(func, ast.Attribute):
            if func.attr == "peek":
                self.found.add(SIM_TIME)
            elif func.attr in RNG_SAMPLERS:
                if _is_rng_receiver(func.value, self.rng_owned):
                    self.found.add(CONSUMES_RNG)
            elif func.attr in _PATH_IO_METHODS and dotted is None:
                self.found.add(PERFORMS_IO)
            elif func.attr in _GLOBAL_MUTATORS:
                base = func.value
                if (isinstance(base, ast.Name)
                        and self._is_module_global(base.id)):
                    self._register_shared(base.id)
                    self.found.add(MUTATES_SHARED)

    def _check_attribute(self, node: ast.Attribute) -> None:
        if node.attr not in ("now", "_now"):
            return
        if not isinstance(node.ctx, ast.Load) or id(node) in self.called:
            # The simulated clock is the ``Simulator.now`` property; a
            # called ``.now()`` is a wall clock (``telemetry.now()``).
            return
        dotted = _dotted_name(node)
        if dotted is not None:
            resolved = self.index.resolve_name(self.mod, dotted)
            if (resolved is not None
                    and not resolved.startswith(self.index.package + ".")):
                return  # datetime.datetime.now and friends: IO, not sim time
        self.found.add(SIM_TIME)

    def _check_name_load(self, node: ast.Name) -> None:
        if node.id in self.locals or node.id in self.declared_global:
            # declared-global loads are paired with their mutation site
            return
        key = f"{self.mod.name}.{node.id}"
        if key in self.index.shared_globals:
            self.found.add(READS_SIM_STATE)


# -- the analysis ---------------------------------------------------------------


@dataclass
class EffectAnalysis:
    """Inferred signatures plus everything the SF rules consume."""

    index: PackageIndex
    contracts: FlowContracts
    direct: "dict[str, set[str]]" = field(default_factory=dict)
    effects: "dict[str, frozenset]" = field(default_factory=dict)

    def signature(self, qualname: str) -> "list[str]":
        return ordered(self.effects.get(qualname, frozenset()))

    def is_pure(self, qualname: str) -> bool:
        return not self.effects.get(qualname, frozenset())

    def reaches_sinks(self, sinks: "tuple[str, ...]") -> "set[str]":
        """Every function from which some sink is reachable (inclusive)."""
        sink_set = {s for s in sinks if s in self.index.functions}
        result = set(sink_set)
        changed = True
        while changed:
            changed = False
            for qual in self.index.functions:
                if qual in result:
                    continue
                for callee, internal, _l, _c in self.index.functions[
                        qual].calls:
                    if internal and callee in result:
                        result.add(qual)
                        changed = True
                        break
        return result


def analyze_effects(index: PackageIndex,
                    contracts: FlowContracts) -> EffectAnalysis:
    analysis = EffectAnalysis(index=index, contracts=contracts)

    # Pass A: mutation sites register shared globals...
    for qualname in sorted(index.functions):
        info = index.functions[qualname]
        mod = index.modules[info.module]
        analysis.direct[qualname] = _DirectEffectVisitor(index, mod,
                                                         info).run()
    # ...pass B: re-run so *reads* of late-registered globals are seen.
    for qualname in sorted(index.functions):
        info = index.functions[qualname]
        mod = index.modules[info.module]
        analysis.direct[qualname] = _DirectEffectVisitor(index, mod,
                                                         info).run()

    # Effects fixed point over the call graph.
    effects = {q: frozenset(found) for q, found in analysis.direct.items()}
    callers: "dict[str, set]" = {}
    for qualname in sorted(index.functions):
        for callee, internal, _l, _c in index.functions[qualname].calls:
            if internal and callee in index.functions:
                callers.setdefault(callee, set()).add(qualname)
            elif not internal:
                extra = external_call_effect(callee)
                if extra is not None:
                    effects[qualname] = effects[qualname] | {extra}
    worklist = sorted(index.functions)
    while worklist:
        nxt: "set[str]" = set()
        for qualname in worklist:
            for caller in callers.get(qualname, ()):
                merged = effects[caller] | effects[qualname]
                if merged != effects[caller]:
                    effects[caller] = merged
                    nxt.add(caller)
        worklist = sorted(nxt)
    analysis.effects = effects
    return analysis
