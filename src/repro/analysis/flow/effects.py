"""Effect extraction and the interprocedural fixed point.

Every function gets an **effect signature**: a subset of

* ``mutates-shared-state`` -- writes module-level state some other call
  can observe (the executor's parallel cells must never do this);
* ``reads-sim-state``     -- reads such state (ordering-sensitive);
* ``consumes-rng-stream`` -- draws from a random stream;
* ``sim-time-dependent``  -- touches the simulated clock
  (``.now`` / ``._now`` / ``peek()``);
* ``performs-io``         -- filesystem, stdout, wall clock, OS calls.

The empty signature is *pure* -- the property the scenario-lowering and
vectorization work will rely on.

Direct effects are syntactic facts gathered per function; the fixed
point then closes them over the call graph: a function carries every
effect of every callee.  Unresolved calls contribute effects through a
conservative external table (``open`` is IO, ``random.random`` consumes
RNG, an unknown attribute call contributes nothing).

The same fixed point also infers **return dimensions** (seconds /
bytes / flop vectors, see :mod:`repro.analysis.flow.dims`), so
``platform.link.transfer_time(...)`` is known to yield seconds at every
call site without annotations.
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


@dataclass(frozen=True)
class EffectSite:
    """One syntactic origin of a direct effect."""

    effect: str
    line: int
    column: int
    detail: str
    #: for rng sites: "owned" / "unowned" (rule SF002 keys on this).
    ownership: str = ""


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
    """Names that plausibly hold an owned random stream."""
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
            if isinstance(value, ast.Tuple):
                # ``a, b = rng.spawn(2)`` handled below via targets
                pass
            if from_stream or from_owned:
                for target in node.targets:
                    for t in ast.walk(target):
                        if isinstance(t, ast.Name):
                            owned.add(t.id)
    return owned


def _is_rng_receiver(expr: ast.AST, owned: "set[str]") -> "str | None":
    """Classify a sampler call's receiver: "owned", "unowned", or None
    (not recognisably a random stream at all)."""
    if isinstance(expr, ast.Name):
        if expr.id in owned:
            return "owned"
        if "rng" in expr.id.lower() or "random" in expr.id.lower():
            return "unowned"  # module-global / unknown provenance
        return None
    if isinstance(expr, ast.Attribute):
        if "rng" in expr.attr.lower() or "random" in expr.attr.lower():
            # self.rng / obj.rng: instance-owned stream
            if isinstance(expr.value, ast.Name) and expr.value.id in (
                    "self", "cls"):
                return "owned"
            return "owned"
        return None
    if isinstance(expr, ast.Call):
        if (isinstance(expr.func, ast.Attribute)
                and expr.func.attr in STREAM_FACTORIES):
            return "owned"
        return None
    return None


class _DirectEffectVisitor:
    """Single walk of one function body collecting direct effect sites."""

    def __init__(self, index: PackageIndex, mod: ModuleInfo,
                 info: FunctionInfo) -> None:
        self.index = index
        self.mod = mod
        self.info = info
        self.sites: "list[EffectSite]" = []
        self.locals = _local_bindings(info.node)
        self.rng_owned = _rng_locals(info.node)
        self.declared_global: "set[str]" = set()

    def _site(self, effect: str, node: ast.AST, detail: str,
              ownership: str = "") -> None:
        self.sites.append(EffectSite(
            effect=effect, line=getattr(node, "lineno", self.info.lineno),
            column=getattr(node, "col_offset", 0) + 1, detail=detail,
            ownership=ownership))

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

    def run(self) -> "list[EffectSite]":
        for node in ast.walk(self.info.node):
            self._visit(node)
        return self.sites

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
                    self._site(MUTATES_SHARED, node,
                               f"rebinds module global {target.id}")
            elif isinstance(target, ast.Subscript):
                base = target.value
                if (isinstance(base, ast.Name)
                        and self._is_module_global(base.id)):
                    self._register_shared(base.id)
                    self._site(MUTATES_SHARED, node,
                               f"writes into module global {base.id}")
            elif isinstance(target, ast.Attribute):
                base = target.value
                if isinstance(base, ast.Name):
                    resolved = self.index.resolve_name(self.mod, base.id)
                    if resolved in self.index.classes:
                        self._site(MUTATES_SHARED, node,
                                   f"writes class attribute "
                                   f"{base.id}.{target.attr}")
                if (isinstance(target, ast.Attribute)
                        and target.attr in ("now", "_now")):
                    self._site(SIM_TIME, node,
                               f"advances simulated clock .{target.attr}")

    def _check_call(self, node: ast.Call) -> None:
        func = node.func
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
                    self._site(CONSUMES_RNG, node,
                               f"{external}() seeded from OS entropy",
                               ownership="unowned")
                    return
                effect = external_call_effect(external)
                if effect == CONSUMES_RNG:
                    self._site(effect, node, f"call to {external}()",
                               ownership="unowned")
                    return
                if effect is not None:
                    self._site(effect, node, f"call to {external}()")
                    return
        if isinstance(func, ast.Attribute):
            if func.attr == "peek":
                self._site(SIM_TIME, node, "reads next-event time (peek)")
            elif func.attr in RNG_SAMPLERS:
                kind = _is_rng_receiver(func.value, self.rng_owned)
                if kind is not None:
                    self._site(CONSUMES_RNG, node,
                               f"draws from stream via .{func.attr}()",
                               ownership=kind)
            elif func.attr in _PATH_IO_METHODS and dotted is None:
                self._site(PERFORMS_IO, node,
                           f"filesystem access via .{func.attr}()")
            elif func.attr in _GLOBAL_MUTATORS:
                base = func.value
                if (isinstance(base, ast.Name)
                        and self._is_module_global(base.id)):
                    self._register_shared(base.id)
                    self._site(MUTATES_SHARED, node,
                               f"mutates module global {base.id} "
                               f"via .{func.attr}()")

    def _check_attribute(self, node: ast.Attribute) -> None:
        if node.attr not in ("now", "_now"):
            return
        if not isinstance(node.ctx, ast.Load):
            return
        dotted = _dotted_name(node)
        if dotted is not None:
            resolved = self.index.resolve_name(self.mod, dotted)
            if (resolved is not None
                    and not resolved.startswith(self.index.package + ".")):
                return  # datetime.datetime.now and friends: IO, not sim time
        self._site(SIM_TIME, node, f"reads simulated clock .{node.attr}")

    def _check_name_load(self, node: ast.Name) -> None:
        if node.id in self.locals or node.id in self.declared_global:
            # declared-global loads are paired with their mutation site
            return
        key = f"{self.mod.name}.{node.id}"
        if key in self.index.shared_globals:
            self._site(READS_SIM_STATE, node,
                       f"reads shared module global {node.id}")


# -- the analysis ---------------------------------------------------------------


@dataclass
class EffectAnalysis:
    """Inferred signatures plus everything the SF rules consume."""

    index: PackageIndex
    contracts: FlowContracts
    direct: "dict[str, list[EffectSite]]" = field(default_factory=dict)
    effects: "dict[str, frozenset]" = field(default_factory=dict)
    return_dims: "dict[str, tuple]" = field(default_factory=dict)
    callers: "dict[str, set]" = field(default_factory=dict)

    def signature(self, qualname: str) -> "list[str]":
        return ordered(self.effects.get(qualname, frozenset()))

    def is_pure(self, qualname: str) -> bool:
        return not self.effects.get(qualname, frozenset())

    def reachable_from(self, roots: "tuple[str, ...]") -> "dict[str, str]":
        """BFS over the call graph; returns {function: parent} for every
        function reachable from any root (roots map to themselves)."""
        parents: "dict[str, str]" = {}
        frontier = [r for r in roots if r in self.index.functions]
        for r in frontier:
            parents[r] = r
        while frontier:
            nxt: "list[str]" = []
            for qual in frontier:
                for callee, internal, _l, _c in self.index.functions[
                        qual].calls:
                    if internal and callee in self.index.functions and (
                            callee not in parents):
                        parents[callee] = qual
                        nxt.append(callee)
            frontier = nxt
        return parents

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

    def chain(self, parents: "dict[str, str]", target: str) -> "list[str]":
        """Root -> ... -> target path from a :meth:`reachable_from` map."""
        path = [target]
        while parents.get(path[-1]) not in (None, path[-1]):
            path.append(parents[path[-1]])
        return list(reversed(path))


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
    effects = {q: frozenset(s.effect for s in sites)
               for q, sites in analysis.direct.items()}
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
    analysis.callers = callers

    # Return-dimension fixed point (see dims.py); SF005 consumes this.
    from repro.analysis.flow.dimflow import infer_return_dims
    analysis.return_dims = infer_return_dims(index, contracts)
    return analysis
