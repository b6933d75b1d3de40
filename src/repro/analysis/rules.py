"""The built-in ``simlint`` rule set and its registry.

Every rule targets a reproducibility hazard that the byte-identity gates
cannot see: the paper's methodology only holds if back-to-back strategy
comparisons see identical stochastic environments (see the docstring of
:mod:`repro.simkernel.rng`), which requires that no code path builds or
draws a random stream outside the
:class:`~repro.simkernel.rng.RngRegistry`, that simulated time is never
compared with ``==``, and that quantities carry their
:mod:`repro.units` names.

A rule is a subclass of :class:`Rule` registered with :func:`register`.
Rules declare the AST node types they want to inspect; the linter in
:mod:`repro.analysis.linter` performs a single walk per module and
dispatches nodes to interested rules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class Finding:
    """One lint diagnostic, pinned to a source location."""

    code: str
    message: str
    path: str
    line: int
    column: int

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.column}: {self.code} {self.message}"

    def to_dict(self) -> dict:
        return {"code": self.code, "message": self.message, "path": self.path,
                "line": self.line, "column": self.column}


class LintContext:
    """Per-module facts shared by all rules: path, imports, resolution."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path.replace("\\", "/")
        self.source = source
        self.tree = tree
        #: ``import numpy as np`` -> {"np": "numpy"}
        self.module_imports: "dict[str, str]" = {}
        #: ``from time import time as t`` -> {"t": "time.time"}
        self.from_imports: "dict[str, str]" = {}
        self._collect_imports(tree)

    def _collect_imports(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.module_imports[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0])
                    if alias.asname:
                        self.module_imports[alias.asname] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    self.from_imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}")

    # -- facts ----------------------------------------------------------

    @property
    def is_units_module(self) -> bool:
        return self.path.endswith("repro/units.py")

    # -- name resolution ------------------------------------------------

    def qualified_name(self, node: ast.AST) -> "str | None":
        """Resolve an attribute/name expression to a dotted module path.

        ``np.random.default_rng`` with ``import numpy as np`` resolves to
        ``"numpy.random.default_rng"``; ``time()`` after ``from time
        import time`` resolves to ``"time.time"``.  Returns ``None`` for
        anything that is not a plain dotted name.
        """
        parts: "list[str]" = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        head = node.id
        if head in self.module_imports:
            head = self.module_imports[head]
        elif head in self.from_imports:
            head = self.from_imports[head]
        parts.append(head)
        return ".".join(reversed(parts))


class Rule:
    """Base class: one diagnostic code, one hazard."""

    code: str = "SL000"
    name: str = "abstract-rule"
    summary: str = ""
    #: AST node classes this rule wants to see (dispatch filter).
    node_types: "tuple[type, ...]" = ()

    def check(self, node: ast.AST, ctx: LintContext) -> Iterable[Finding]:
        """Yield findings for one node of an interesting type."""
        return ()

    def finding(self, ctx: LintContext, node: ast.AST, message: str) -> Finding:
        return Finding(code=self.code, message=message, path=ctx.path,
                       line=getattr(node, "lineno", 1),
                       column=getattr(node, "col_offset", 0) + 1)


#: code -> rule instance, in registration order.
REGISTRY: "dict[str, Rule]" = {}


def register(cls: "type[Rule]") -> "type[Rule]":
    """Class decorator: instantiate and index a rule by its code."""
    rule = cls()
    if rule.code in REGISTRY:
        raise ValueError(f"duplicate rule code {rule.code}")
    REGISTRY[rule.code] = rule
    return cls


def all_rules() -> "list[Rule]":
    return list(REGISTRY.values())


# ---------------------------------------------------------------------------
# SL001 -- random streams outside the registry
# ---------------------------------------------------------------------------

#: Module prefixes whose *every* callable draws, seeds or builds a stream
#: outside the registry: ``numpy.random.default_rng(7)`` is as much an
#: unowned stream as ``random.random()``, seeded or not.
_ENTROPY_PREFIXES = ("random.", "numpy.random.")

#: The registry and its seeding helper: the only modules that may build
#: numpy generators, bit generators and seed sequences.
_REGISTRY_MODULES = ("simkernel/rng.py", "simkernel/_seedseq.py")


@register
class RngOutsideRegistryRule(Rule):
    """A random stream built or drawn outside the RngRegistry."""

    code = "SL001"
    name = "rng-outside-registry"
    summary = ("calls that build or draw a random stream outside "
               "RngRegistry (random.*, any numpy.random generator, "
               "seeded or not)")
    node_types = (ast.Call,)

    def check(self, node: ast.Call, ctx: LintContext) -> Iterable[Finding]:
        qual = ctx.qualified_name(node.func)
        if (qual is not None and qual.startswith(_ENTROPY_PREFIXES)
                and not ctx.path.endswith(_REGISTRY_MODULES)):
            yield self.finding(ctx, node, (
                f"call to {qual}() bypasses RngRegistry; competing "
                f"strategies would no longer see identical environments"))


# ---------------------------------------------------------------------------
# SL004 -- floating-point simulated-time equality
# ---------------------------------------------------------------------------

def _is_sim_time_expr(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute) and node.attr in ("now", "_now"):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "peek":
            return True
    return False


@register
class FloatTimeEqualityRule(Rule):
    """``==`` / ``!=`` on simulated time is a float-comparison trap."""

    code = "SL004"
    name = "float-time-equality"
    summary = ("== / != comparisons against simulated time (.now / peek()); "
               "accumulated float error makes exact equality fragile")
    node_types = (ast.Compare,)

    def check(self, node: ast.Compare, ctx: LintContext) -> Iterable[Finding]:
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            return
        operands = [node.left, *node.comparators]
        if any(_is_sim_time_expr(o) for o in operands):
            yield self.finding(ctx, node, (
                "exact == / != comparison on simulated time; compare with "
                "an ordering (<, >=) or an explicit tolerance"))


# ---------------------------------------------------------------------------
# SL005 -- raw unit literals
# ---------------------------------------------------------------------------

#: literal value -> the repro.units spelling that should replace it.
#: Float and int keys that compare equal hash together, so ``300e6`` in
#: source hits the ``300 * 10**6`` entry.
_UNIT_LITERALS = {
    10 ** 6: "units.MB (bytes), units.MFLOPS (flop/s), or units.MB_S "
             "(bytes/s)",
    10 ** 9: "units.GB (bytes), units.GFLOPS (flop/s), or units.GB_S "
             "(bytes/s)",
    1 << 20: "units.MIB",
    1 << 30: "units.GIB",
    3600: "units.HOUR",
    86400: "24 * units.HOUR",
    # Rates that appear in platform/app specs (100e6, 300e6, ...).
    100 * 10 ** 6: "100 * units.MFLOPS (flop/s) or 100 * units.MB_S "
                   "(bytes/s)",
    250 * 10 ** 6: "250 * units.MFLOPS (flop/s)",
    300 * 10 ** 6: "300 * units.MFLOPS (flop/s)",
    350 * 10 ** 6: "350 * units.MFLOPS (flop/s)",
}


@register
class RawUnitLiteralRule(Rule):
    """Magic numbers that already have a name in :mod:`repro.units`."""

    code = "SL005"
    name = "raw-unit-literal"
    summary = ("raw numeric literals (1e6, 1e9, 3600, ...) where a "
               "repro.units constant exists")
    node_types = (ast.Constant,)

    def check(self, node: ast.Constant, ctx: LintContext) -> Iterable[Finding]:
        if ctx.is_units_module:
            return
        value = node.value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return
        suggestion = _UNIT_LITERALS.get(value)
        if suggestion is not None:
            yield self.finding(ctx, node, (
                f"raw unit literal {value!r}; use {suggestion} so call "
                f"sites read like the paper"))
