"""Whole-package module/call graph for the flow analyzer.

:class:`PackageIndex` parses every module of a package once and builds
the symbol tables the interprocedural pass needs:

* functions and methods by qualified name (``pkg.mod.Class.meth``);
* classes with resolved base classes and attribute types (gathered
  from class-body annotations and ``self.x = <typed>`` assignments in
  ``__init__``);
* per-module import maps, mirroring
  :class:`repro.analysis.rules.LintContext`;
* module-level *mutable globals* and, among them, the ones some
  function actually mutates -- the "shared state" the effect pass
  reports as ``mutates-shared-state``.

Call resolution is deliberately pragmatic: exact where types are known
(imports, constructors, annotated parameters, ``self``), and falling
back to *by-name* linking for attribute calls on untyped receivers --
``strategy.run(...)`` links to every in-package ``run`` method.  That
over-approximation is what makes effect inference conservative rather
than blind; common container-method names (``append``, ``update``,
...) are excluded from the fallback so list manipulation does not link
to unrelated classes.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Collection

#: Attribute-call names never linked by the untyped-receiver fallback:
#: they are overwhelmingly builtin-container operations.
GENERIC_METHODS = frozenset({
    "append", "add", "update", "extend", "insert", "remove", "pop",
    "popitem", "clear", "setdefault", "discard", "get", "items", "keys",
    "values", "copy", "sort", "index", "count", "join", "split", "strip",
    "startswith", "endswith", "format", "replace", "encode", "decode",
    "lower", "upper", "read", "write", "close", "flush",
})

#: Cap on by-name fallback fan-out; a name matching more methods than
#: this is too generic to carry signal.
_FALLBACK_CAP = 16

#: Calls producing mutable containers (module-level globals bound to one
#: of these are mutable-global candidates).
_MUTABLE_FACTORIES = frozenset({
    "list", "dict", "set", "bytearray", "collections.deque",
    "collections.defaultdict", "collections.OrderedDict",
    "collections.Counter",
})

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp,
                     ast.DictComp, ast.SetComp)


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str
    module: str
    path: str
    node: ast.AST
    lineno: int
    cls: "str | None" = None
    #: call sites: (callee qualname or external dotted name, resolved
    #: in-package?, lineno, col)
    calls: "list[tuple[str, bool, int, int]]" = field(default_factory=list)


@dataclass
class ClassInfo:
    qualname: str
    module: str
    node: ast.ClassDef
    base_names: "list[str]" = field(default_factory=list)
    methods: "dict[str, str]" = field(default_factory=dict)
    #: attribute name -> class qualname (from annotations and __init__).
    attr_types: "dict[str, str]" = field(default_factory=dict)


@dataclass
class ModuleInfo:
    name: str
    path: str
    source: str
    tree: ast.Module
    #: alias -> module dotted name (``import numpy as np``).
    imports_mod: "dict[str, str]" = field(default_factory=dict)
    #: local name -> full dotted origin (``from x import y [as z]``).
    imports_from: "dict[str, str]" = field(default_factory=dict)
    #: module-level names bound to a mutable container.
    mutable_globals: "set[str]" = field(default_factory=set)
    #: module-level name -> class qualname (``X = ClassName()``).
    global_types: "dict[str, str]" = field(default_factory=dict)


class PackageIndex:
    """Symbol tables and call graph for one parsed package tree."""

    def __init__(self, package: str) -> None:
        self.package = package
        self.modules: "dict[str, ModuleInfo]" = {}
        self.functions: "dict[str, FunctionInfo]" = {}
        self.classes: "dict[str, ClassInfo]" = {}
        self.methods_by_name: "dict[str, list[str]]" = {}
        #: global qualname (module.NAME) -> set of mutating function
        #: qualnames; populated by the effects pass.
        self.shared_globals: "dict[str, set]" = {}

    # -- construction -----------------------------------------------------

    @classmethod
    def build(cls, root: "str | Path", package: "str | None" = None,
              modules: "Collection[str] | None" = None) -> "PackageIndex":
        """Parse every ``.py`` file under ``root`` (a package directory).

        ``package`` defaults to the directory's name; ``modules``, when
        given, keeps only the named modules (e.g. the model closure).
        """
        root = Path(root).resolve()
        if not root.is_dir():
            raise FileNotFoundError(f"package directory not found: {root}")
        package = package or root.name
        index = cls(package)
        for path in sorted(root.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            rel = path.relative_to(root)
            parts = [package] + list(rel.with_suffix("").parts)
            if parts[-1] == "__init__":
                parts = parts[:-1]
            module_name = ".".join(parts)
            if modules is not None and module_name not in modules:
                continue
            source = path.read_text(encoding="utf-8")
            try:
                tree = ast.parse(source, filename=str(path))
            except SyntaxError:
                continue  # the per-file linter reports SL000 for these
            index._add_module(module_name, str(path), source, tree)
        for mod in sorted(index.modules):
            index._resolve_calls(index.modules[mod])
        return index

    def _add_module(self, name: str, path: str, source: str,
                    tree: ast.Module) -> None:
        mod = ModuleInfo(name=name, path=path.replace("\\", "/"),
                         source=source, tree=tree)
        self.modules[name] = mod
        self._collect_imports(mod)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(mod, node, cls=None)
            elif isinstance(node, ast.ClassDef):
                self._add_class(mod, node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                self._classify_global(mod, node)

    def _collect_imports(self, mod: ModuleInfo) -> None:
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    key = alias.asname or alias.name.split(".")[0]
                    mod.imports_mod[key] = (alias.name if alias.asname
                                            else alias.name.split(".")[0])
                    if alias.asname:
                        mod.imports_mod[alias.asname] = alias.name
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:  # relative import -> anchor in the package
                    parts = mod.name.split(".")
                    anchor = parts[:len(parts) - node.level]
                    base = ".".join(anchor + ([node.module]
                                              if node.module else []))
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    target = f"{base}.{alias.name}" if base else alias.name
                    mod.imports_from[alias.asname or alias.name] = target

    def _add_function(self, mod: ModuleInfo, node, cls: "str | None") -> None:
        name = node.name if cls is None else f"{cls.split('.')[-1]}.{node.name}"
        qualname = (f"{mod.name}.{node.name}" if cls is None
                    else f"{cls}.{node.name}")
        info = FunctionInfo(qualname=qualname, module=mod.name, path=mod.path,
                            node=node, lineno=node.lineno, cls=cls)
        self.functions[qualname] = info
        # A property is read, never called: ``telemetry.now()`` must not
        # link to ``Simulator.now``.
        if cls is not None and not any(
                isinstance(d, ast.Name) and d.id == "property"
                for d in node.decorator_list):
            self.methods_by_name.setdefault(node.name, []).append(qualname)
        del name

    def _add_class(self, mod: ModuleInfo, node: ast.ClassDef) -> None:
        qualname = f"{mod.name}.{node.name}"
        cinfo = ClassInfo(qualname=qualname, module=mod.name, node=node)
        self.classes[qualname] = cinfo
        mod.global_types.setdefault(node.name, qualname)
        for base in node.bases:
            dotted = _dotted_name(base)
            if dotted is not None:
                cinfo.base_names.append(dotted)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(mod, stmt, cls=qualname)
                cinfo.methods[stmt.name] = f"{qualname}.{stmt.name}"
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name):
                type_name = annotation_class_name(stmt.annotation)
                if type_name:
                    resolved = self.resolve_class(mod, type_name)
                    if resolved:
                        cinfo.attr_types[stmt.target.id] = resolved

    def _classify_global(self, mod: ModuleInfo, node) -> None:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        value = node.value
        if value is None:
            return
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if not names:
            return
        if isinstance(value, _MUTABLE_LITERALS):
            mod.mutable_globals.update(names)
        elif isinstance(value, ast.Call):
            dotted = _dotted_name(value.func)
            if dotted in _MUTABLE_FACTORIES:
                mod.mutable_globals.update(names)
            elif dotted is not None:
                cls_qual = self.resolve_class(mod, dotted)
                if cls_qual:
                    for n in names:
                        mod.global_types[n] = cls_qual

    # -- name/type resolution ----------------------------------------------

    def resolve_name(self, mod: ModuleInfo, dotted: str) -> "str | None":
        """Resolve a dotted name as seen from ``mod`` to a full origin.

        ``obs.emit`` with ``from repro import obs`` resolves to
        ``repro.obs.emit``.  Returns None for unresolvable heads.
        """
        head, _, rest = dotted.partition(".")
        origin = None
        if head in mod.imports_from:
            origin = mod.imports_from[head]
        elif head in mod.imports_mod:
            origin = mod.imports_mod[head]
        elif f"{mod.name}.{head}" in self.functions:
            origin = f"{mod.name}.{head}"
        elif f"{mod.name}.{head}" in self.classes:
            origin = f"{mod.name}.{head}"
        elif head in mod.global_types or head in mod.mutable_globals:
            origin = f"{mod.name}.{head}"
        if origin is None:
            return None
        return f"{origin}.{rest}" if rest else origin

    def resolve_class(self, mod: ModuleInfo, name: str) -> "str | None":
        """Resolve an annotation/constructor name to an in-package class."""
        resolved = self.resolve_name(mod, name)
        if resolved in self.classes:
            return resolved
        # A class re-exported through a package __init__ still resolves
        # if the terminal name is unique in the package.
        tail = name.split(".")[-1]
        matches = [q for q in self.classes if q.endswith(f".{tail}")]
        if len(matches) == 1 and (resolved is None
                                  or resolved.split(".")[-1] == tail):
            return matches[0]
        return None

    def method_on(self, cls_qual: str, name: str,
                  _seen: "frozenset | None" = None) -> "str | None":
        """Look up a method on a class or its in-package bases (MRO-ish)."""
        seen = _seen or frozenset()
        if cls_qual in seen or cls_qual not in self.classes:
            return None
        cinfo = self.classes[cls_qual]
        if name in cinfo.methods:
            return cinfo.methods[name]
        mod = self.modules[cinfo.module]
        for base in cinfo.base_names:
            base_qual = self.resolve_class(mod, base)
            if base_qual:
                found = self.method_on(base_qual, name,
                                       seen | {cls_qual})
                if found:
                    return found
        return None

    def subclass_methods(self, name: str) -> "list[str]":
        """Every in-package method with this name (the by-name fallback)."""
        return self.methods_by_name.get(name, [])

    # -- call resolution -----------------------------------------------------

    def _resolve_calls(self, mod: ModuleInfo) -> None:
        for qualname in sorted(self.functions):
            info = self.functions[qualname]
            if info.module != mod.name:
                continue
            env = self._param_types(mod, info)
            self._infer_local_types(mod, info, env)
            for node in ast.walk(info.node):
                if isinstance(node, ast.Call):
                    for callee, internal in self._resolve_call(
                            mod, info, env, node):
                        info.calls.append((callee, internal, node.lineno,
                                           node.col_offset))

    def _param_types(self, mod: ModuleInfo,
                     info: FunctionInfo) -> "dict[str, str]":
        env: "dict[str, str]" = {}
        args = info.node.args
        params = list(args.posonlyargs) + list(args.args) + list(
            args.kwonlyargs)
        for arg in params:
            if arg.annotation is not None:
                type_name = annotation_class_name(arg.annotation)
                if type_name:
                    resolved = self.resolve_class(mod, type_name)
                    if resolved:
                        env[arg.arg] = resolved
        if info.cls is not None and params and params[0].arg in ("self",
                                                                 "cls"):
            env[params[0].arg] = info.cls
        return env

    def _infer_local_types(self, mod: ModuleInfo, info: FunctionInfo,
                           env: "dict[str, str]") -> None:
        # Two passes so forward references within a body settle.
        for _ in range(2):
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Assign):
                    continue
                if len(node.targets) != 1 or not isinstance(
                        node.targets[0], ast.Name):
                    continue
                inferred = self.infer_type(mod, env, node.value)
                if inferred:
                    env[node.targets[0].id] = inferred
        # __init__ assignments feed the class attribute-type table.
        if info.cls and info.node.name == "__init__":
            cinfo = self.classes.get(info.cls)
            if cinfo is not None:
                for node in ast.walk(info.node):
                    if (isinstance(node, ast.Assign)
                            and len(node.targets) == 1
                            and isinstance(node.targets[0], ast.Attribute)
                            and isinstance(node.targets[0].value, ast.Name)
                            and node.targets[0].value.id == "self"):
                        inferred = self.infer_type(mod, env, node.value)
                        if inferred:
                            cinfo.attr_types.setdefault(
                                node.targets[0].attr, inferred)

    def infer_type(self, mod: ModuleInfo, env: "dict[str, str]",
                   expr: ast.AST) -> "str | None":
        """Best-effort class qualname of an expression, or None."""
        if isinstance(expr, ast.Name):
            if expr.id in env:
                return env[expr.id]
            if expr.id in mod.global_types:
                return mod.global_types[expr.id]
            resolved = mod.imports_from.get(expr.id)
            if resolved in self.classes:
                return resolved
            return None
        if isinstance(expr, ast.Attribute):
            base = self.infer_type(mod, env, expr.value)
            if base and base in self.classes:
                return self.classes[base].attr_types.get(expr.attr)
            return None
        if isinstance(expr, ast.Call):
            dotted = _dotted_name(expr.func)
            if dotted is not None:
                cls_qual = self.resolve_class(mod, dotted)
                if cls_qual:
                    return cls_qual
                resolved = self.resolve_name(mod, dotted)
                if resolved in self.functions:
                    ret = return_annotation_class(
                        self.functions[resolved].node)
                    if ret:
                        return self.resolve_class(
                            self.modules[self.functions[resolved].module],
                            ret)
            return None
        if isinstance(expr, ast.IfExp):
            return (self.infer_type(mod, env, expr.body)
                    or self.infer_type(mod, env, expr.orelse))
        return None

    def _resolve_call(self, mod: ModuleInfo, info: FunctionInfo,
                      env: "dict[str, str]", node: ast.Call,
                      ) -> "list[tuple[str, bool]]":
        """Resolve one call site to (callee, in_package?) pairs."""
        func = node.func
        dotted = _dotted_name(func)
        if dotted is not None:
            resolved = self.resolve_name(mod, dotted)
            if resolved is not None:
                if resolved in self.functions:
                    return [(resolved, True)]
                if resolved in self.classes:
                    init = self.method_on(resolved, "__init__")
                    return [(init, True)] if init else [(resolved, True)]
                # method on a typed module-global / imported symbol chain
                head, _, rest = resolved.rpartition(".")
                if rest and head in self.classes:
                    meth = self.method_on(head, rest)
                    if meth:
                        return [(meth, True)]
                if not resolved.startswith(self.package + "."):
                    return [(resolved, False)]
        if isinstance(func, ast.Attribute):
            recv_type = self.infer_type(mod, env, func.value)
            if recv_type:
                meth = self.method_on(recv_type, func.attr)
                if meth:
                    return [(meth, True)]
            if dotted is None or recv_type is None:
                # Untyped receiver: by-name fallback over the package.
                if func.attr not in GENERIC_METHODS:
                    matches = self.subclass_methods(func.attr)
                    if matches and len(matches) <= _FALLBACK_CAP:
                        return [(m, True) for m in sorted(matches)]
                return [(f"<unknown>.{func.attr}", False)]
        if dotted is not None:
            return [(dotted, False)]
        return [("<dynamic>", False)]


def _dotted_name(node: ast.AST) -> "str | None":
    """``a.b.c`` as a string, or None for non-name expressions."""
    parts: "list[str]" = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def annotation_class_name(node: ast.AST) -> "str | None":
    """The class name an annotation denotes, unwrapping quotes and
    ``X | None`` unions; None when it is not a plain class reference."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = annotation_class_name(node.left)
        right = annotation_class_name(node.right)
        candidates = [c for c in (left, right) if c and c != "None"]
        return candidates[0] if len(candidates) == 1 else None
    dotted = _dotted_name(node)
    if dotted in ("None", "Any", "object"):
        return None
    return dotted


def return_annotation_class(node: ast.AST) -> "str | None":
    returns = getattr(node, "returns", None)
    if returns is None:
        return None
    return annotation_class_name(returns)
