"""SVC001 + ASYNC001/ASYNC002: service-tier call-path discipline.

The resilience guarantees of :mod:`repro.service` (breaker-gated
degradation, budgeted retries, deadlines — the paper's disconnect
semantics mapped onto an async cache node) hold only if *every* path
from the node to the L2 backend or the invalidation-report broker goes
through the one sanctioned wrapper, ``call_with_retry``.  These rules
make that an invariant the gate checks, over the project call graph:

* **SVC001** — a call path from a ``CacheNode`` public method that
  reaches an async ``backend_*``/``broker_*`` hook without passing
  ``call_with_retry``.  Reachability stops *at* the wrapper (lambdas
  passed to it hang off the wrapper in the call graph), so the wrapped
  ``lambda: backend.backend_fetch(item)`` thunks are sanctioned and a
  future helper that "just quickly" calls the backend directly is not.
  Sync hooks (``broker_subscribe``/``broker_subscriber_count``) are
  in-process registry operations, not remote calls, and are exempt.
* **ASYNC001** — a blocking call (``time.sleep``, sync socket/file I/O,
  non-awaited ``.acquire()``) lexically inside service-tier code
  reachable from an ``async def``: it would stall the event loop every
  node shares.
* **ASYNC002** — ``create_task`` whose result is dropped (or kept
  without an exception-handling ``add_done_callback`` and never
  awaited/returned): task exceptions would vanish into "never
  retrieved" warnings instead of the node's failure accounting.
  The rule covers ``create_task``, the API node code is expected to
  use; the virtual clock starts no tasks at all (``drive`` and
  ``with_deadline`` run their awaitable on the caller's task).
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set

from ..callgraph import CallGraph, CallSite, build_call_graph
from ..engine import Finding, Project, Rule, Severity, register_rule

_SERVICE_PREFIX = "repro/service/"
_HOOK_PREFIXES = ("backend_", "broker_")
_WRAPPER_NAME = "call_with_retry"


def _async_hooks(graph: CallGraph) -> Set[str]:
    """Async ``backend_*``/``broker_*`` methods in the service package —
    base-class hooks *and* every override (duck-typed call sites resolve
    by name to all of them)."""
    return {
        qual
        for qual, info in graph.functions.items()
        if info.is_async
        and info.cls is not None
        and info.name.startswith(_HOOK_PREFIXES)
        and info.module.path.startswith(_SERVICE_PREFIX)
    }


@register_rule
class ResiliencePathRule(Rule):
    """SVC001: CacheNode -> backend/broker only through call_with_retry."""

    code = "SVC001"
    name = "resilience-path"
    description = "backend/broker reached from CacheNode without call_with_retry"
    severity = Severity.ERROR
    include = ("repro/service/*",)

    def check_project(self, project: Project) -> Iterable[Finding]:
        graph = build_call_graph(project)
        hooks = _async_hooks(graph)
        if not hooks:
            return []
        wrappers = {
            qual
            for qual, info in graph.functions.items()
            if info.name == _WRAPPER_NAME
        }
        roots = sorted(
            qual
            for qual, info in graph.functions.items()
            if info.cls == "CacheNode"
            and info.module.path.startswith(_SERVICE_PREFIX)
            and not info.name.startswith("_")
        )
        findings: List[Finding] = []
        reachable = graph.reachable(roots, stop=wrappers)
        for caller in sorted(reachable):
            info = graph.functions.get(caller)
            if info is None or caller in wrappers:
                continue
            if info.cls is not None and info.name.startswith(_HOOK_PREFIXES):
                # Below the boundary: a backend impl delegating to
                # another backend is the wrapper's callee, not a bypass.
                continue
            for site in graph.function_calls(caller):
                hit = sorted(set(site.targets) & hooks)
                if not hit:
                    continue
                witness = graph.witness_root(roots, caller, stop=wrappers)
                findings.append(
                    self.finding(
                        info.module,
                        site.lineno,
                        f"{hit[0].split('::')[1]} reached from CacheNode "
                        f"public API ({witness or caller}) without passing "
                        f"{_WRAPPER_NAME}: wrap the call in the "
                        "breaker/retry/deadline stack",
                    )
                )
        return findings


#: Dotted callables that block the event loop outright.
_BLOCKING_DOTTED = frozenset({"time.sleep", "os.system", "os.wait", "input"})
#: Module prefixes whose direct calls are synchronous I/O.
_BLOCKING_PREFIXES = ("socket.", "subprocess.", "requests.", "urllib.")


def _blocking_reason(site: CallSite) -> Optional[str]:
    dotted = site.dotted
    if dotted is not None:
        if dotted in _BLOCKING_DOTTED:
            return f"blocking call {dotted}()"
        if dotted.startswith(_BLOCKING_PREFIXES):
            return f"synchronous I/O call {dotted}()"
        if dotted == "open":
            return "synchronous file I/O open()"
    if site.attr == "acquire" and not site.awaited:
        return "non-awaited .acquire() (blocks the loop on contention)"
    return None


@register_rule
class AsyncBlockingRule(Rule):
    """ASYNC001: no blocking calls on async service paths."""

    code = "ASYNC001"
    name = "async-no-blocking"
    description = "blocking call inside async-reachable service code"
    severity = Severity.ERROR
    include = ("repro/service/*",)

    def check_project(self, project: Project) -> Iterable[Finding]:
        graph = build_call_graph(project)
        roots = sorted(
            qual
            for qual, info in graph.functions.items()
            if info.is_async and info.module.path.startswith(_SERVICE_PREFIX)
        )
        findings: List[Finding] = []
        for caller in sorted(graph.reachable(roots)):
            info = graph.functions.get(caller)
            if info is None or not info.module.path.startswith(_SERVICE_PREFIX):
                continue
            for site in graph.function_calls(caller):
                reason = _blocking_reason(site)
                if reason is not None:
                    findings.append(
                        self.finding(
                            info.module,
                            site.lineno,
                            f"{reason} on an async-reachable service path "
                            f"({caller.split('::')[1]}): use the Clock/async "
                            "primitives instead",
                        )
                    )
        return findings


@register_rule
class FireAndForgetRule(Rule):
    """ASYNC002: every create_task gets an exception-handling callback."""

    code = "ASYNC002"
    name = "no-fire-and-forget"
    description = "create_task without done-callback, await, or return"
    severity = Severity.ERROR
    include = ("repro/*",)

    def check_project(self, project: Project) -> Iterable[Finding]:
        graph = build_call_graph(project)
        findings: List[Finding] = []
        for qual, info in graph.functions.items():
            if isinstance(info.node, ast.Lambda):
                continue
            sites = graph.function_calls(qual)
            spawns = [s for s in sites if s.attr == "create_task"]
            if not spawns:
                continue
            if any(s.attr == "add_done_callback" for s in sites):
                continue
            returned = self._returned_exprs(info.node)
            for site in spawns:
                if site.awaited or id(site.node) in returned:
                    continue
                findings.append(
                    self.finding(
                        info.module,
                        site.lineno,
                        "fire-and-forget create_task: attach an "
                        "exception-handling add_done_callback (or await/"
                        "return the task) so failures reach the node's "
                        "accounting instead of 'never retrieved' warnings",
                    )
                )
        return findings

    @staticmethod
    def _returned_exprs(
        node: "ast.FunctionDef | ast.AsyncFunctionDef",
    ) -> Set[int]:
        """ids of expressions whose value leaves via ``return`` — either
        directly or through a name that is later returned."""
        returned_names: Set[str] = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Return) and isinstance(sub.value, ast.Name):
                returned_names.add(sub.value.id)
        out: Set[int] = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Return) and sub.value is not None:
                out.add(id(sub.value))
            elif isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                target = sub.targets[0]
                if isinstance(target, ast.Name) and target.id in returned_names:
                    out.add(id(sub.value))
        return out
