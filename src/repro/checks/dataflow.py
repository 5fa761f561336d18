"""Forward dataflow: which values are (or contain) RNG stream handles.

DET004's question — "is every random draw traceable to a named
:class:`repro.des.rng.RandomStream`, and does any stream handle escape
its owning component?" — is a taint problem.  Taint **sources** are the
two ways the codebase mints streams:

* ``RandomStream(seed, name)`` construction, and
* ``<anything>.stream(name)`` — the :class:`RandomStreams` factory
  method (any ``.stream()`` call taints: over-approximate, never miss).

Taint then propagates through assignments, returns, and call arguments
to a fixpoint over the whole project:

* **locals** per function;
* **parameters** — seeded from annotations mentioning ``RandomStream``
  (covers ``Optional[RandomStream]`` etc.) and grown interprocedurally
  from call sites passing tainted arguments;
* **returns** — functions whose return value may be a stream;
* **attributes** — keyed by *attribute name alone*, project-wide
  (``self.stream = <tainted>`` anywhere taints ``x.stream`` everywhere).
  Deliberately coarse: the analysis has no alias information, and for a
  gate the safe direction is "more values count as streams", which can
  only *reduce* untraceable-draw findings and costs nothing for the
  escape checks (those fire on stores, not reads);
* **module globals** per module.

Along the way the engine records the two escape-shaped *events* DET004
reports: stores of tainted values into module/class/``global`` state,
and tainted arguments crossing a package boundary (the rule judges the
latter against the ARCH001 layering DAG).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .callgraph import CallGraph, CallSite, FunctionInfo
from .engine import ModuleInfo

__all__ = [
    "DRAW_METHODS",
    "CrossPackagePass",
    "SharedStateStore",
    "StreamTaint",
    "scoped_walk",
]

#: The draw surface of :class:`repro.des.rng.RandomStream`.
DRAW_METHODS = frozenset(
    {
        "exponential",
        "uniform",
        "randint",
        "bernoulli",
        "bernoulli_exponentials",
        "uniforms",
        "poisson_at_least_one",
        "choice_without_replacement",
        "shuffled",
    }
)

#: Constructors that mint stream objects.
_STREAM_CLASSES = frozenset({"RandomStream", "RandomStreams"})
#: The factory method name (``RandomStreams.stream``).
_FACTORY_METHOD = "stream"

#: Scope qualname used for module-level code of a given module path.
def module_scope(path: str) -> str:
    return f"{path}::<module>"


class SharedStateStore:
    """A tainted value stored into module-level / class-level / ``global``
    state — the "stream handle on shared state" escape (DET004)."""

    __slots__ = ("module", "lineno", "target", "kind")

    def __init__(self, module: ModuleInfo, lineno: int, target: str, kind: str) -> None:
        self.module = module
        self.lineno = lineno
        self.target = target
        #: ``module-global`` | ``global-statement`` | ``class-attribute``
        self.kind = kind


class CrossPackagePass:
    """A tainted argument handed to a function in another package.

    ``fuzzy`` marks passes found only through duck-typed by-name call
    resolution — DET004 skips those (protocol injection across layers is
    the architecture's sanctioned inversion mechanism; judging every
    same-named method project-wide would flag it constantly)."""

    __slots__ = ("module", "lineno", "callee", "param", "fuzzy")

    def __init__(
        self,
        module: ModuleInfo,
        lineno: int,
        callee: FunctionInfo,
        param: str,
        fuzzy: bool,
    ) -> None:
        self.module = module
        self.lineno = lineno
        self.callee = callee
        self.param = param
        self.fuzzy = fuzzy


def scoped_walk(stmts: List[ast.stmt]) -> Iterator[ast.AST]:
    """Walk *stmts* without descending into nested function/class scopes.

    Nested ``def``s, lambdas, and class bodies are separate scopes with
    their own taint state; yielding their interiors here would attribute
    their effects to the enclosing scope.
    """
    stack: List[ast.AST] = list(stmts)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef),
        ):
            continue  # boundary nodes are yielded but never entered
        stack.extend(ast.iter_child_nodes(node))


class StreamTaint:
    """Whole-project stream-handle taint, computed to a fixpoint."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        #: (function qualname, parameter name)
        self.tainted_params: Set[Tuple[str, str]] = set()
        #: function qualnames whose return value may be a stream
        self.tainted_returns: Set[str] = set()
        #: attribute names (project-wide, see module docstring)
        self.tainted_attrs: Set[str] = set()
        #: (module path, global name)
        self.tainted_globals: Set[Tuple[str, str]] = set()
        #: scope qualname -> tainted local names
        self.locals_of: Dict[str, Set[str]] = {}
        self.shared_stores: List[SharedStateStore] = []
        self.cross_package: List[CrossPackagePass] = []
        #: id(ast.Call) -> resolved CallSite (from the call graph)
        self._site: Dict[int, CallSite] = {}
        for sites in graph.calls.values():
            for s in sites:
                self._site[id(s.node)] = s
        self._seen_stores: Set[Tuple[str, int, str]] = set()
        self._seen_passes: Set[Tuple[str, int, str, str]] = set()
        self._seed_annotations()
        self._fixpoint()

    # -- setup -------------------------------------------------------------

    def _seed_annotations(self) -> None:
        for qual, info in self.graph.functions.items():
            for param, annotation in info.annotations.items():
                if "RandomStream" in annotation:
                    self.tainted_params.add((qual, param))

    def _state_size(self) -> int:
        return (
            len(self.tainted_params)
            + len(self.tainted_returns)
            + len(self.tainted_attrs)
            + len(self.tainted_globals)
            + sum(len(v) for v in self.locals_of.values())
        )

    def _fixpoint(self) -> None:
        for _ in range(64):  # far beyond any real call-chain depth
            before = self._state_size()
            for module in self.graph.project.modules:
                if isinstance(module.tree, ast.Module):
                    self._process_module_scope(module)
            for info in self.graph.functions.values():
                self._process_function(info)
            if self._state_size() == before:
                break

    # -- per-scope transfer ------------------------------------------------

    def _process_module_scope(self, module: ModuleInfo) -> None:
        scope = module_scope(module.path)
        # Class bodies execute at import time; their assignments are
        # shared (class-attribute) state.
        pending: List[Tuple[List[ast.stmt], Optional[ast.ClassDef]]] = [
            (list(module.tree.body), None)
        ]
        while pending:
            stmts, cls = pending.pop()
            for node in scoped_walk(stmts):
                if isinstance(node, ast.ClassDef):
                    pending.append((list(node.body), node))
                else:
                    self._transfer(node, scope, module, cls)

    def _process_function(self, info: FunctionInfo) -> None:
        scope = info.qualname
        local = self.locals_of.setdefault(scope, set())
        for param in info.params:
            if (info.qualname, param) in self.tainted_params:
                local.add(param)
        node = info.node
        if isinstance(node, ast.Lambda):
            if self.expr_tainted(scope, info.module, node.body):
                self.tainted_returns.add(scope)
            for sub in ast.walk(node.body):
                if isinstance(sub, ast.Call):
                    self._propagate_call(sub, scope, info.module)
            return
        declared_global: Set[str] = set()
        for stmt in scoped_walk(list(node.body)):
            if isinstance(stmt, ast.Global):
                declared_global.update(stmt.names)
        for sub in scoped_walk(list(node.body)):
            self._transfer(sub, scope, info.module, None, declared_global, info)

    def _transfer(
        self,
        node: ast.AST,
        scope: str,
        module: ModuleInfo,
        cls: Optional[ast.ClassDef],
        declared_global: Optional[Set[str]] = None,
        info: Optional[FunctionInfo] = None,
    ) -> None:
        if isinstance(node, ast.Assign):
            if self.expr_tainted(scope, module, node.value):
                for target in node.targets:
                    self._store(target, scope, module, cls, declared_global)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if self.expr_tainted(scope, module, node.value):
                self._store(node.target, scope, module, cls, declared_global)
        elif isinstance(node, ast.AugAssign):
            if self.expr_tainted(scope, module, node.value):
                self._store(node.target, scope, module, cls, declared_global)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if self.expr_tainted(scope, module, node.iter):
                self._store(node.target, scope, module, cls, declared_global)
        elif isinstance(node, ast.NamedExpr):
            if self.expr_tainted(scope, module, node.value):
                self._store(node.target, scope, module, cls, declared_global)
        elif isinstance(node, ast.Return) and node.value is not None:
            if info is not None and self.expr_tainted(scope, module, node.value):
                self.tainted_returns.add(scope)
        elif isinstance(node, ast.Call):
            self._propagate_call(node, scope, module)

    def _store(
        self,
        target: ast.expr,
        scope: str,
        module: ModuleInfo,
        cls: Optional[ast.ClassDef],
        declared_global: Optional[Set[str]],
    ) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._store(element, scope, module, cls, declared_global)
        elif isinstance(target, ast.Starred):
            self._store(target.value, scope, module, cls, declared_global)
        elif isinstance(target, ast.Name):
            name = target.id
            if cls is not None:
                self.tainted_attrs.add(name)
                self._record_store(
                    module, target.lineno, f"{cls.name}.{name}", "class-attribute"
                )
            elif declared_global is not None and name not in declared_global:
                self.locals_of.setdefault(scope, set()).add(name)
            else:
                kind = (
                    "global-statement"
                    if declared_global is not None
                    else "module-global"
                )
                self.tainted_globals.add((module.path, name))
                self._record_store(module, target.lineno, name, kind)
        elif isinstance(target, ast.Attribute):
            self.tainted_attrs.add(target.attr)
        elif isinstance(target, ast.Subscript):
            # Storing a stream into a container: taint the container.
            self._store(target.value, scope, module, cls, declared_global)

    def _record_store(
        self, module: ModuleInfo, lineno: int, target: str, kind: str
    ) -> None:
        key = (module.path, lineno, target)
        if key not in self._seen_stores:
            self._seen_stores.add(key)
            self.shared_stores.append(SharedStateStore(module, lineno, target, kind))

    # -- calls -------------------------------------------------------------

    def _propagate_call(
        self, call: ast.Call, scope: str, module: ModuleInfo
    ) -> None:
        site = self._site.get(id(call))
        if site is None or not site.targets:
            return
        for target_qual in site.targets:
            callee = self.graph.functions.get(target_qual)
            if callee is None:
                continue
            params = list(callee.params)
            if callee.cls is not None and params and params[0] in ("self", "cls"):
                params = params[1:]
            for index, arg in enumerate(call.args):
                if isinstance(arg, ast.Starred) or index >= len(params):
                    continue
                if self.expr_tainted(scope, module, arg):
                    self._taint_param(
                        callee, params[index], module, arg.lineno, site.fuzzy
                    )
            for keyword in call.keywords:
                if keyword.arg is None:
                    continue
                if keyword.arg in callee.params and self.expr_tainted(
                    scope, module, keyword.value
                ):
                    self._taint_param(
                        callee, keyword.arg, module, keyword.value.lineno, site.fuzzy
                    )

    def _taint_param(
        self,
        callee: FunctionInfo,
        param: str,
        module: ModuleInfo,
        lineno: int,
        fuzzy: bool,
    ) -> None:
        self.tainted_params.add((callee.qualname, param))
        if callee.module.package != module.package:
            key = (module.path, lineno, callee.qualname, param)
            if key not in self._seen_passes:
                self._seen_passes.add(key)
                self.cross_package.append(
                    CrossPackagePass(module, lineno, callee, param, fuzzy)
                )

    # -- expression taint --------------------------------------------------

    def is_source(self, call: ast.Call) -> bool:
        func = call.func
        if isinstance(func, ast.Name) and func.id in _STREAM_CLASSES:
            return True
        if isinstance(func, ast.Attribute):
            if func.attr == _FACTORY_METHOD:
                return True
            # repro.des.rng.RandomStream spelled through a module alias.
            if func.attr in _STREAM_CLASSES:
                return True
        return False

    def expr_tainted(self, scope: str, module: ModuleInfo, expr: ast.expr) -> bool:
        if isinstance(expr, ast.Name):
            if expr.id in self.locals_of.get(scope, ()):
                return True
            return (module.path, expr.id) in self.tainted_globals
        if isinstance(expr, ast.Attribute):
            return expr.attr in self.tainted_attrs
        if isinstance(expr, ast.Call):
            if self.is_source(expr):
                return True
            site = self._site.get(id(expr))
            if site is not None:
                return any(t in self.tainted_returns for t in site.targets)
            return False
        if isinstance(expr, ast.Await):
            return self.expr_tainted(scope, module, expr.value)
        if isinstance(expr, ast.NamedExpr):
            return self.expr_tainted(scope, module, expr.value)
        if isinstance(expr, ast.IfExp):
            return self.expr_tainted(scope, module, expr.body) or self.expr_tainted(
                scope, module, expr.orelse
            )
        if isinstance(expr, ast.BoolOp):
            return any(self.expr_tainted(scope, module, v) for v in expr.values)
        if isinstance(expr, ast.Subscript):
            return self.expr_tainted(scope, module, expr.value)
        if isinstance(expr, ast.Starred):
            return self.expr_tainted(scope, module, expr.value)
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            return any(self.expr_tainted(scope, module, e) for e in expr.elts)
        return False

    # -- queries for DET004 ------------------------------------------------

    def draw_sites(self) -> Iterator[Tuple[ModuleInfo, str, ast.Call]]:
        """Every ``<receiver>.<draw_method>(...)`` call: (module, scope,
        call).  Scope is the enclosing function qualname or the module
        scope sentinel."""
        for caller, sites in self.graph.calls.items():
            for site in sites:
                if site.attr in DRAW_METHODS and isinstance(
                    site.node.func, ast.Attribute
                ):
                    info = self.graph.functions.get(caller)
                    if info is not None:
                        yield info.module, caller, site.node
        # Module-level draw calls are keyed under caller "" and carry no
        # module back-reference; rescan those rare sites directly.
        for module in self.graph.project.modules:
            if not isinstance(module.tree, ast.Module):
                continue
            scope = module_scope(module.path)
            for node in scoped_walk(list(module.tree.body)):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in DRAW_METHODS
                ):
                    yield module, scope, node

    def scope_of(self, call: ast.Call) -> Optional[str]:
        """Qualname of the function containing *call* (from the call
        graph's site index), or ``None`` for unindexed/module-level."""
        site = self._site.get(id(call))
        return site.caller if site is not None and site.caller else None

    def receiver_tainted(self, module: ModuleInfo, scope: str, call: ast.Call) -> bool:
        assert isinstance(call.func, ast.Attribute)
        return self.expr_tainted(scope, module, call.func.value)


def build_stream_taint(graph: CallGraph) -> StreamTaint:
    """Build (or fetch the per-graph cached) taint result."""
    cached = getattr(graph, "_taint", None)
    if not isinstance(cached, StreamTaint):
        cached = StreamTaint(graph)
        graph._taint = cached  # type: ignore[attr-defined]
    return cached
