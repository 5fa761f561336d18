"""Project-wide symbol table and call graph for interprocedural rules.

The per-file AST rules (DET001-003, PERF001, API001/002) cannot see a
``random`` draw seeded in one module and consumed two modules away, or a
service code path that reaches an ``L2Backend`` without passing the
breaker/retry/deadline wrapper.  This module builds the shared
infrastructure those cross-module rules (DET004, SVC001, ASYNC001/002)
query: every function/method definition in the scanned tree, each
module's import table, and a resolved call-site graph.

Approximations (documented in ``docs/STATIC_ANALYSIS.md``):

* **Name calls** resolve through the module's import table (absolute and
  relative ``from``-imports both supported) or to a same-module
  definition; calling a project class resolves to its ``__init__``.
* **``self.method()``** resolves along the enclosing class's base chain
  (bases followed across modules via the import table).
* **``obj.method()``** on anything else resolves *by name* to every
  class method in the project with that name — an over-approximation
  (extra edges, never missing ones) that makes duck-typed dependency
  injection (``self.backend.backend_fetch``) visible to reachability
  rules.
* **Lambdas** are first-class graph nodes.  A lambda passed as an
  argument to a call that resolves inside the project hangs off the
  *callee* (the receiver is who invokes it) — which is exactly what lets
  SVC001 treat ``call_with_retry(..., lambda: backend.backend_fetch(i))``
  as passing through the wrapper.  A lambda handed to unresolved code
  (``sorted``, ``functools.partial``) hangs off the enclosing function.
* **Nested ``def``s** get an edge from their enclosing function (the
  definition may escape; treating definition as potential call
  over-approximates reachability, the conservative direction).
* Dynamic dispatch via ``getattr``/``exec`` and calls through container
  elements are invisible: the graph under-approximates there.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .engine import ModuleInfo, Project

__all__ = [
    "CallGraph",
    "CallSite",
    "FunctionInfo",
    "build_call_graph",
    "dotted_name",
]

_FuncNode = "ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda"


def dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for a pure Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    cur: ast.expr = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    parts.append(cur.id)
    return ".".join(reversed(parts))


def _path_candidates(dotted: str) -> Tuple[str, str]:
    """Module and package file paths a dotted module name may live at."""
    base = dotted.replace(".", "/")
    return f"{base}.py", f"{base}/__init__.py"


class FunctionInfo:
    """One function, method, nested def, or lambda in the project."""

    __slots__ = (
        "qualname",
        "module",
        "name",
        "cls",
        "node",
        "is_async",
        "lineno",
        "params",
        "annotations",
    )

    def __init__(
        self,
        qualname: str,
        module: ModuleInfo,
        name: str,
        cls: Optional[str],
        node: "ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda",
    ) -> None:
        self.qualname = qualname
        self.module = module
        self.name = name
        #: Immediately enclosing class name, or None for plain functions.
        self.cls = cls
        self.node = node
        self.is_async = isinstance(node, ast.AsyncFunctionDef)
        self.lineno = node.lineno
        args = node.args
        ordered = [*args.posonlyargs, *args.args]
        self.params: Tuple[str, ...] = tuple(a.arg for a in ordered) + tuple(
            a.arg for a in args.kwonlyargs
        )
        #: Parameter name -> unparsed annotation text.
        self.annotations: Dict[str, str] = {}
        if not isinstance(node, ast.Lambda):
            for a in [*ordered, *args.kwonlyargs]:
                if a.annotation is not None:
                    self.annotations[a.arg] = ast.unparse(a.annotation)

    @property
    def package(self) -> str:
        return self.module.package

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FunctionInfo {self.qualname}>"


class CallSite:
    """One call expression inside one function."""

    __slots__ = (
        "caller",
        "node",
        "lineno",
        "attr",
        "dotted",
        "targets",
        "awaited",
        "fuzzy",
    )

    def __init__(
        self,
        caller: str,
        node: ast.Call,
        *,
        attr: Optional[str],
        dotted: Optional[str],
        targets: Tuple[str, ...],
        awaited: bool,
        fuzzy: bool,
    ) -> None:
        #: Qualname of the enclosing function ("" for module level).
        self.caller = caller
        self.node = node
        self.lineno = node.lineno
        #: Bare method name for attribute calls (``backend_fetch``).
        self.attr = attr
        #: Import-resolved dotted path (``time.sleep``) when the callee
        #: is a pure Name/Attribute chain.
        self.dotted = dotted
        #: Qualnames of project functions this call may land in.
        self.targets = targets
        self.awaited = awaited
        #: True when targets came from duck-typed by-name resolution
        #: (every project method with this name) rather than an
        #: import/self-resolved definition.
        self.fuzzy = fuzzy


_ClassKey = Tuple[str, str]


class CallGraph:
    """Symbol table + call sites + edges over one :class:`Project`."""

    def __init__(self, project: Project) -> None:
        self.project = project
        #: qualname -> FunctionInfo (lambdas included).
        self.functions: Dict[str, FunctionInfo] = {}
        #: method name -> qualnames of class-scoped defs with that name.
        self.methods_by_name: Dict[str, List[str]] = {}
        #: (module path, class name) -> ClassDef (top-level classes).
        self.classes: Dict[_ClassKey, ast.ClassDef] = {}
        #: per-module import table: local name -> absolute dotted target.
        self.imports: Dict[str, Dict[str, str]] = {}
        #: caller qualname -> call sites within it ("" = module level).
        self.calls: Dict[str, List[CallSite]] = {}
        #: caller qualname -> callee qualnames.
        self.edges: Dict[str, Set[str]] = {}
        #: id(def node) -> qualname (internal index).
        self._node_qual: Dict[int, str] = {}
        self._build()

    # -- construction ------------------------------------------------------

    def _build(self) -> None:
        for module in self.project.modules:
            if isinstance(module.tree, ast.Module):
                self.imports[module.path] = _import_table(module.tree, module.path)
                self._index_module(module)
        for module in self.project.modules:
            if isinstance(module.tree, ast.Module):
                self._collect_calls(module)

    def _index_module(self, module: ModuleInfo) -> None:
        """Register every def/class/lambda with a stable qualname."""

        def visit(node: ast.AST, prefix: str, cls: Optional[str]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{module.path}::{prefix}{child.name}"
                    self._add(
                        FunctionInfo(qual, module, child.name, cls, child)
                    )
                    visit(child, f"{prefix}{child.name}.<locals>.", None)
                elif isinstance(child, ast.ClassDef):
                    if not prefix:
                        self.classes[(module.path, child.name)] = child
                    visit(child, f"{prefix}{child.name}.", child.name)
                elif isinstance(child, ast.Lambda):
                    qual = (
                        f"{module.path}::"
                        f"<lambda:{child.lineno}:{child.col_offset}>"
                    )
                    self._add(FunctionInfo(qual, module, "<lambda>", None, child))
                    visit(child, prefix, None)
                else:
                    visit(child, prefix, cls)

        visit(module.tree, "", None)

    def _add(self, info: FunctionInfo) -> None:
        self.functions[info.qualname] = info
        self._node_qual[id(info.node)] = info.qualname
        if info.cls is not None:
            self.methods_by_name.setdefault(info.name, []).append(info.qualname)

    # -- resolution --------------------------------------------------------

    def module_qual(self, dotted: str) -> Optional[str]:
        """Project qualname for dotted ``repro.x.y.func``, if indexed."""
        mod, _, obj = dotted.rpartition(".")
        if not mod:
            return None
        for path in _path_candidates(mod):
            qual = f"{path}::{obj}"
            if qual in self.functions:
                return qual
        return None

    def resolve_class(
        self, module_path: str, name: str, _seen: Optional[Set[_ClassKey]] = None
    ) -> Optional[Tuple[str, ast.ClassDef]]:
        """Find a class by local *name*, following the import table."""
        seen = _seen if _seen is not None else set()
        key = (module_path, name)
        if key in seen:
            return None
        seen.add(key)
        cls = self.classes.get(key)
        if cls is not None:
            return module_path, cls
        target = self.imports.get(module_path, {}).get(name)
        if target:
            mod, _, obj = target.rpartition(".")
            for path in _path_candidates(mod):
                if path in self.imports:
                    return self.resolve_class(path, obj, seen)
        return None

    def method_on_class(
        self, module_path: str, cls_name: str, method: str
    ) -> Optional[str]:
        """Resolve *method* along the class's base chain; qualname or None."""
        seen: Set[_ClassKey] = set()

        def walk(mod: str, name: str) -> Optional[str]:
            key = (mod, name)
            if key in seen:
                return None
            seen.add(key)
            resolved = self.resolve_class(mod, name)
            if resolved is None:
                return None
            rmod, cls = resolved
            qual = f"{rmod}::{cls.name}.{method}"
            if qual in self.functions:
                return qual
            for base in cls.bases:
                base_name = (
                    base.id
                    if isinstance(base, ast.Name)
                    else base.attr
                    if isinstance(base, ast.Attribute)
                    else None
                )
                if base_name:
                    found = walk(rmod, base_name)
                    if found:
                        return found
            return None

        return walk(module_path, cls_name)

    def resolve_call(
        self, module: ModuleInfo, func: Optional[FunctionInfo], call: ast.Call
    ) -> Tuple[Optional[str], Optional[str], Tuple[str, ...], bool]:
        """(attr, dotted, target qualnames, fuzzy) for one call expression.

        ``fuzzy`` is True when the targets are the duck-typed by-name
        fallback rather than an import/self-resolved definition.
        """
        table = self.imports.get(module.path, {})
        callee = call.func
        raw_dotted = dotted_name(callee)
        resolved_dotted: Optional[str] = None
        if raw_dotted is not None:
            head, _, rest = raw_dotted.partition(".")
            target = table.get(head)
            if target is not None:
                resolved_dotted = target + ("." + rest if rest else "")
            else:
                resolved_dotted = raw_dotted
        if isinstance(callee, ast.Name):
            qual = f"{module.path}::{callee.id}"
            if qual in self.functions:
                return None, resolved_dotted, (qual,), False
            target = table.get(callee.id)
            if target:
                found = self.module_qual(target)
                if found is not None:
                    return None, resolved_dotted, (found,), False
            # Class instantiation -> its __init__ when resolvable.
            cls = self.resolve_class(module.path, callee.id)
            if cls is not None:
                rmod, cdef = cls
                init = self.method_on_class(rmod, cdef.name, "__init__")
                return None, resolved_dotted, (init,) if init else (), False
            return None, resolved_dotted, (), False
        if isinstance(callee, ast.Attribute):
            attr = callee.attr
            # self.method() -> enclosing class chain.
            if (
                isinstance(callee.value, ast.Name)
                and callee.value.id == "self"
                and func is not None
                and func.cls is not None
            ):
                qual = self.method_on_class(module.path, func.cls, attr)
                if qual is not None:
                    return attr, resolved_dotted, (qual,), False
            # module_alias.func() through the import table.
            if isinstance(callee.value, ast.Name):
                target = table.get(callee.value.id)
                if target:
                    found = self.module_qual(f"{target}.{attr}")
                    if found is not None:
                        return attr, resolved_dotted, (found,), False
            # Duck-typed: every project method with this name.
            return (
                attr,
                resolved_dotted,
                tuple(self.methods_by_name.get(attr, ())),
                True,
            )
        return None, None, (), False

    # -- call-site collection ---------------------------------------------

    def _collect_calls(self, module: ModuleInfo) -> None:
        graph = self

        class Visitor(ast.NodeVisitor):
            def __init__(self) -> None:
                #: Stack of (qualname, FunctionInfo|None) scopes.
                self.scope: List[Tuple[str, Optional[FunctionInfo]]] = [("", None)]
                self.awaiting: List[ast.expr] = []

            def _enter(self, node: ast.AST) -> None:
                qual = graph._node_qual.get(id(node), "")
                self.scope.append((qual, graph.functions.get(qual)))

            def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
                self._handle_def(node)

            def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
                self._handle_def(node)

            def _handle_def(
                self, node: "ast.FunctionDef | ast.AsyncFunctionDef"
            ) -> None:
                qual = graph._node_qual.get(id(node), "")
                caller = self.scope[-1][0]
                if caller and qual:
                    # Nested def: reachable from its enclosing function.
                    graph.edges.setdefault(caller, set()).add(qual)
                self._enter(node)
                for stmt in node.body:
                    self.visit(stmt)
                self.scope.pop()

            def visit_Lambda(self, node: ast.Lambda) -> None:
                self._enter(node)
                self.visit(node.body)
                self.scope.pop()

            def visit_Await(self, node: ast.Await) -> None:
                self.awaiting.append(node.value)
                self.visit(node.value)
                self.awaiting.pop()

            def visit_Call(self, node: ast.Call) -> None:
                caller, info = self.scope[-1]
                attr, dotted, targets, fuzzy = graph.resolve_call(
                    module, info, node
                )
                site = CallSite(
                    caller,
                    node,
                    attr=attr,
                    dotted=dotted,
                    targets=targets,
                    awaited=bool(self.awaiting) and self.awaiting[-1] is node,
                    fuzzy=fuzzy,
                )
                graph.calls.setdefault(caller, []).append(site)
                edges = graph.edges.setdefault(caller, set())
                edges.update(targets)
                # Lambda arguments: a resolved callee is who invokes
                # them; unresolved receivers leave them with the caller.
                owners = (
                    [graph.edges.setdefault(t, set()) for t in targets]
                    if targets
                    else [edges]
                )
                for arg in [*node.args, *[k.value for k in node.keywords]]:
                    if isinstance(arg, ast.Lambda):
                        qual = graph._node_qual.get(id(arg), "")
                        if qual:
                            for owner in owners:
                                owner.add(qual)
                for child in ast.iter_child_nodes(node):
                    self.visit(child)

        Visitor().visit(module.tree)

    # -- queries -----------------------------------------------------------

    def function_calls(self, qualname: str) -> List[CallSite]:
        return self.calls.get(qualname, [])

    def reachable(
        self, roots: Sequence[str], *, stop: Optional[Set[str]] = None
    ) -> Set[str]:
        """Qualnames reachable from *roots* over the edge set.

        Functions in *stop* are reached but not traversed *through* —
        the SVC001 wrapper-boundary semantics.
        """
        stop_set = stop or set()
        seen: Set[str] = set()
        frontier = list(roots)
        while frontier:
            cur = frontier.pop()
            if cur in seen:
                continue
            seen.add(cur)
            if cur in stop_set:
                continue
            frontier.extend(self.edges.get(cur, ()))
        return seen

    def witness_root(
        self, roots: Sequence[str], target: str, *, stop: Optional[Set[str]] = None
    ) -> Optional[str]:
        """One root from which *target* is reachable (for messages)."""
        for root in sorted(roots):
            if target in self.reachable([root], stop=stop):
                return root
        return None

    def dump(self) -> str:
        """Human-readable edge listing for ``--callgraph-dump``."""
        lines: List[str] = []
        for caller in sorted(self.edges):
            for callee in sorted(self.edges[caller]):
                lines.append(f"{caller or '<module>'} -> {callee}")
        return "\n".join(lines)


def _import_table(tree: ast.Module, module_path: str) -> Dict[str, str]:
    """Local name -> absolute dotted path, for every import in the module.

    ``import a.b`` binds ``a`` -> ``a``; ``import a.b as m`` binds ``m``
    -> ``a.b``; ``from a.b import c as d`` binds ``d`` -> ``a.b.c``.
    Relative imports resolve against *module_path* (``from ..des.rng
    import RandomStream`` in ``repro/service/retry.py`` binds
    ``RandomStream`` -> ``repro.des.rng.RandomStream``).
    """
    table: Dict[str, str] = {}
    package_parts = module_path.split("/")[:-1]  # __init__.py IS its package
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    table[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    table[head] = head
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                parts = package_parts[: len(package_parts) - (node.level - 1)]
                base = ".".join(parts)
                if node.module:
                    base = f"{base}.{node.module}" if base else node.module
            if not base:
                continue
            for alias in node.names:
                table[alias.asname or alias.name] = f"{base}.{alias.name}"
    return table


def build_call_graph(project: Project) -> CallGraph:
    """Build (or fetch the per-project cached) call graph."""
    cached = project.callgraph_cache
    if not isinstance(cached, CallGraph):
        cached = CallGraph(project)
        project.callgraph_cache = cached
    return cached
