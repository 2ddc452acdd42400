"""Project-wide symbol table and call graph for the lint engine.

Parses every module of the ``repro`` package once and builds:

- a module table (import aliases, module-level functions, classes
  with single-inheritance method resolution),
- a function table keyed by qualified name
  (``repro.sim.engine.Engine.step``), each node carrying its
  resolved call sites and *direct effect* summaries:

  ========== ======================================================
  ``rng``    draws from interpreter-global RNG state (SFS001 logic)
  ``clock``  reads the host wall clock (SFS002 logic)
  ``global`` declares and assigns a module global
  ========== ======================================================

  plus ``returns_set`` — the function returns (or ``yield from``-s)
  a syntactic set, so its result's iteration order is hash order.

Calls are resolved conservatively: bare names via module defs and
import aliases, ``module.attr(...)`` via import aliases,
``self.m(...)``/``cls.m(...)`` through the enclosing class and its
resolvable bases. Unresolvable calls (instance methods on arbitrary
objects, ``super()``, dynamic dispatch) become no edge — the analysis
under-approximates reachability rather than guessing. Nested
functions and lambdas are merged into their enclosing function.

:mod:`.project` propagates the summaries over this graph into the
interprocedural rules SFS008/SFS009.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.staticcheck.checks import (
    _DATETIME_NOW,
    _NUMPY_OK,
    _WALL_CLOCK_FNS,
    _call_name,
    _dotted,
    _is_set_expr,
    _set_assigned_names,
)

__all__ = [
    "CallGraph",
    "CallSite",
    "ClassNode",
    "Effect",
    "FunctionNode",
    "ModuleNode",
    "build_callgraph",
]

#: call wrappers whose output order is observable (mirrors SFS003)
_ITER_SINKS = frozenset({"list", "tuple", "enumerate", "reversed", "iter", "join"})


@dataclass(frozen=True)
class Effect:
    """One direct nondeterminism source inside a function."""

    kind: str  # "rng" | "clock" | "global"
    detail: str
    path: str
    line: int


@dataclass(frozen=True)
class CallSite:
    """One resolved call edge, with enough context for the sink rules."""

    target: str
    line: int
    col: int
    in_return: bool  # the call is the returned expression
    sink: str | None  # iteration construct consuming the result, if any


@dataclass
class FunctionNode:
    """A function or method: effects, call sites, source anchor."""

    qualname: str
    module: str
    path: str
    line: int
    returns_set: bool = False
    calls: list[CallSite] = field(default_factory=list)
    effects: list[Effect] = field(default_factory=list)


@dataclass
class ClassNode:
    """A class: raw base names plus method-name -> function qualname."""

    qualname: str
    module: str
    name: str
    bases: tuple[str, ...]
    methods: dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleNode:
    """One parsed module: alias map and top-level defs."""

    name: str
    path: str
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, str] = field(default_factory=dict)
    classes: dict[str, ClassNode] = field(default_factory=dict)


class CallGraph:
    """The whole-project graph; built by :func:`build_callgraph`."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleNode] = {}
        self.functions: dict[str, FunctionNode] = {}
        self.classes: dict[str, ClassNode] = {}

    # ------------------------------------------------------------------
    # name resolution
    # ------------------------------------------------------------------

    def resolve_dotted(self, dotted: str, mod: ModuleNode) -> str | None:
        """Resolve a dotted callee name in ``mod`` to a function qualname."""
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in mod.imports:
                expanded = ".".join([mod.imports[prefix], *parts[cut:]])
                return self._lookup_qual(expanded)
        if parts[0] in mod.functions and len(parts) == 1:
            return mod.functions[parts[0]]
        if parts[0] in mod.classes:
            cls = mod.classes[parts[0]]
            if len(parts) == 1:
                return self.lookup_method(cls, "__init__")
            if len(parts) == 2:
                return self.lookup_method(cls, parts[1])
        return None

    def _lookup_qual(self, qual: str) -> str | None:
        if qual in self.functions:
            return qual
        if qual in self.classes:
            return self.lookup_method(self.classes[qual], "__init__")
        head, _, last = qual.rpartition(".")
        if head in self.classes:
            return self.lookup_method(self.classes[head], last)
        return None

    def lookup_method(
        self, cls: ClassNode, name: str, _seen: set[str] | None = None
    ) -> str | None:
        """Find ``name`` on ``cls`` or its resolvable base classes."""
        if name in cls.methods:
            return cls.methods[name]
        seen = _seen if _seen is not None else set()
        if cls.qualname in seen:
            return None
        seen.add(cls.qualname)
        mod = self.modules.get(cls.module)
        if mod is None:
            return None
        for base in cls.bases:
            base_qual = self._resolve_class(base, mod)
            if base_qual is not None:
                found = self.lookup_method(self.classes[base_qual], name, seen)
                if found is not None:
                    return found
        return None

    def _resolve_class(self, dotted: str, mod: ModuleNode) -> str | None:
        parts = dotted.split(".")
        if len(parts) == 1 and parts[0] in mod.classes:
            return mod.classes[parts[0]].qualname
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in mod.imports:
                qual = ".".join([mod.imports[prefix], *parts[cut:]])
                return qual if qual in self.classes else None
        return None

    def resolve_call(
        self, func: ast.AST, mod: ModuleNode, cls: ClassNode | None
    ) -> str | None:
        """Resolve one call expression's callee, or None."""
        if isinstance(func, ast.Name):
            return self.resolve_dotted(func.id, mod)
        if isinstance(func, ast.Attribute):
            base = _dotted(func.value)
            if base is None:
                return None
            if base in ("self", "cls") and cls is not None:
                return self.lookup_method(cls, func.attr)
            return self.resolve_dotted(f"{base}.{func.attr}", mod)
        return None


def build_callgraph(src_root: str | Path, package: str = "repro") -> CallGraph:
    """Parse ``src_root/package`` into a :class:`CallGraph`."""
    src_root = Path(src_root)
    graph = CallGraph()
    pending: list[tuple[FunctionNode, ast.AST, ClassNode | None, ModuleNode]] = []
    for file in sorted((src_root / package).rglob("*.py")):
        if "__pycache__" in file.parts:
            continue
        rel = file.relative_to(src_root)
        parts = list(rel.with_suffix("").parts)
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modname = ".".join(parts)
        try:
            tree = ast.parse(file.read_text(encoding="utf-8"), filename=str(file))
        except (SyntaxError, UnicodeDecodeError, OSError):
            continue  # SFS000 reports unparsable files; no graph node
        mod = ModuleNode(name=modname, path=(Path(src_root.name) / rel).as_posix())
        _collect_imports(tree, mod)
        _collect_defs(tree, mod, graph, pending)
        graph.modules[modname] = mod
    for fn, node, cls, mod in pending:
        _scan_function(fn, node, cls, mod, graph)
    return graph


def _collect_imports(tree: ast.Module, mod: ModuleNode) -> None:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    mod.imports[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    mod.imports.setdefault(head, head)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                mod.imports[bound] = f"{node.module}.{alias.name}"


def _collect_defs(
    tree: ast.Module,
    mod: ModuleNode,
    graph: CallGraph,
    pending: list[tuple[FunctionNode, ast.AST, ClassNode | None, ModuleNode]],
) -> None:
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = f"{mod.name}.{node.name}"
            fn = FunctionNode(qual, mod.name, mod.path, node.lineno)
            graph.functions[qual] = fn
            mod.functions[node.name] = qual
            pending.append((fn, node, None, mod))
        elif isinstance(node, ast.ClassDef):
            cls = ClassNode(
                qualname=f"{mod.name}.{node.name}",
                module=mod.name,
                name=node.name,
                bases=tuple(
                    b for b in (_dotted(base) for base in node.bases) if b
                ),
            )
            graph.classes[cls.qualname] = cls
            mod.classes[node.name] = cls
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{cls.qualname}.{item.name}"
                    fn = FunctionNode(qual, mod.name, mod.path, item.lineno)
                    graph.functions[qual] = fn
                    cls.methods[item.name] = qual
                    pending.append((fn, item, cls, mod))


def _direct_effect(node: ast.Call) -> tuple[str, str] | None:
    """(kind, detail) when the call is itself an RNG/clock source."""
    func = node.func
    if not isinstance(func, ast.Attribute):
        return None
    owner = _dotted(func.value)
    if owner is None:
        return None
    attr = func.attr
    if owner == "random":
        if attr == "SystemRandom":
            return ("rng", "random.SystemRandom()")
        if attr == "Random":
            if not node.args and not node.keywords:
                return ("rng", "random.Random() without a seed")
            return None
        return ("rng", f"random.{attr}()")
    if owner in ("numpy.random", "np.random"):
        if attr == "default_rng":
            if not node.args and not node.keywords:
                return ("rng", "numpy default_rng() without a seed")
            return None
        if attr not in _NUMPY_OK:
            return ("rng", f"{owner}.{attr}()")
        return None
    if owner == "time" and attr in _WALL_CLOCK_FNS:
        return ("clock", f"time.{attr}()")
    if attr in _DATETIME_NOW and (
        owner in ("datetime", "date") or owner.startswith("datetime.")
    ):
        return ("clock", f"{owner}.{attr}()")
    return None


def _scan_function(
    fn: FunctionNode,
    node: ast.AST,
    cls: ClassNode | None,
    mod: ModuleNode,
    graph: CallGraph,
) -> None:
    """Fill one function node's effects and call sites (nested defs merged)."""
    set_names = _set_assigned_names(node)
    iterated: dict[int, str] = {}  # id(call node) -> sink description
    returning: set[int] = set()
    global_decls: dict[str, int] = {}
    assigned: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, (ast.For, ast.AsyncFor)):
            if isinstance(sub.iter, ast.Call):
                iterated[id(sub.iter)] = "a for loop"
        elif isinstance(sub, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            for comp in sub.generators:
                if isinstance(comp.iter, ast.Call):
                    iterated[id(comp.iter)] = "a comprehension"
        elif isinstance(sub, ast.Call):
            name = _call_name(sub.func)
            if name in _ITER_SINKS and sub.args and isinstance(sub.args[0], ast.Call):
                iterated[id(sub.args[0])] = f"{name}()"
        elif isinstance(sub, ast.Return) and sub.value is not None:
            if isinstance(sub.value, ast.Call):
                returning.add(id(sub.value))
            if _is_set_expr(sub.value, set_names):
                fn.returns_set = True
        elif isinstance(sub, ast.YieldFrom):
            if _is_set_expr(sub.value, set_names):
                fn.returns_set = True
        elif isinstance(sub, ast.Global):
            for name in sub.names:
                global_decls.setdefault(name, sub.lineno)
        elif isinstance(sub, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                sub.targets if isinstance(sub, ast.Assign) else [sub.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    assigned.add(target.id)
    for name in sorted(set(global_decls) & assigned):
        fn.effects.append(
            Effect(
                "global",
                f"mutates module global {name!r}",
                fn.path,
                global_decls[name],
            )
        )
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        effect = _direct_effect(sub)
        if effect is not None:
            fn.effects.append(Effect(effect[0], effect[1], fn.path, sub.lineno))
        target = graph.resolve_call(sub.func, mod, cls)
        if target is not None:
            fn.calls.append(
                CallSite(
                    target=target,
                    line=sub.lineno,
                    col=sub.col_offset,
                    in_return=id(sub) in returning,
                    sink=iterated.get(id(sub)),
                )
            )
