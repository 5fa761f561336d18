"""ARCH001: the package layering DAG and import-cycle detection.

The dependency order is::

    des -> net -> reports -> schemes -> sim -> chaos -> experiments

(with ``cache``/``db``/``analysis`` as low-level leaves) — a package may
import only packages at or below its own layer, *at module level*.
Function-scoped (lazy) imports are the sanctioned escape hatch for the
few runtime inversions (``sim`` raising chaos-oracle violations), as are
``if TYPE_CHECKING:`` blocks, which never execute at runtime.

Rationale: the layering is what keeps the DES kernel reusable, the
schemes unit-testable without an event loop, and the import graph
acyclic — a cycle means ``import repro.X`` works or crashes depending on
who imported what first.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from ..engine import Finding, Project, Rule, Severity, register_rule

#: Direct allowed dependencies per subpackage; the rule closes them
#: transitively.  A subpackage missing from this table is itself a
#: finding — extend the table when adding one.
LAYER_DAG: Dict[str, Tuple[str, ...]] = {
    "des": (),
    "cache": (),
    "analysis": (),
    "checks": (),
    "topology": (),
    "db": ("des",),
    "net": ("des",),
    "reports": ("des",),
    "schemes": ("reports", "cache", "db"),
    # The DAG is keyed by top-level subpackage: intra-package modules
    # (sim.population, sim.propagation, sim.server, ...) are covered
    # by their package's node and impose no extra edges.
    "sim": ("schemes", "net", "analysis", "topology"),
    # The service tier reuses the certification core and the fault
    # models but must stay importable without the simulator: it may
    # never depend on sim or chaos (chaos outage schedules reach it
    # duck-typed through the OutageLike protocol).
    "service": ("schemes", "net"),
    "chaos": ("sim",),
    "experiments": ("chaos",),
}


def _transitive_allowed() -> Dict[str, Set[str]]:
    closed: Dict[str, Set[str]] = {}

    def close(pkg: str) -> Set[str]:
        if pkg in closed:
            return closed[pkg]
        allowed: Set[str] = set()
        closed[pkg] = allowed  # DAG by construction; no recursion guard needed
        for dep in LAYER_DAG[pkg]:
            allowed.add(dep)
            allowed.update(close(dep))
        return allowed

    for pkg in LAYER_DAG:
        close(pkg)
    return closed


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name) and test.id == "TYPE_CHECKING":
        return True
    return isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"


def _module_level_imports(
    tree: ast.Module,
) -> Iterable["ast.Import | ast.ImportFrom"]:
    """Imports executed when the module is imported: skips function
    bodies and ``if TYPE_CHECKING:`` blocks, descends into classes,
    try/except and ordinary conditionals."""
    stack: List[ast.stmt] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        elif isinstance(node, ast.If):
            if not _is_type_checking_test(node.test):
                stack.extend(node.body)
            stack.extend(node.orelse)
        elif isinstance(node, ast.ClassDef):
            stack.extend(node.body)
        elif isinstance(node, ast.Try):
            stack.extend(node.body)
            for handler in node.handlers:
                stack.extend(handler.body)
            stack.extend(node.orelse)
            stack.extend(node.finalbody)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            stack.extend(node.body)
        elif isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            stack.extend(node.body)
            stack.extend(node.orelse)


def _target_packages(
    node: "ast.Import | ast.ImportFrom", importer_path: str
) -> List[Tuple[str, int]]:
    """Top-level ``repro`` subpackages a single import statement pulls in
    (with the statement's line), resolving relative imports against the
    importer's own dotted path."""
    out: List[Tuple[str, int]] = []

    def add(parts: List[str]) -> None:
        if len(parts) >= 2 and parts[0] == "repro":
            out.append((parts[1], node.lineno))

    if isinstance(node, ast.Import):
        for alias in node.names:
            add(alias.name.split("."))
        return out
    if node.level == 0:
        if node.module:
            parts = node.module.split(".")
            if parts == ["repro"]:  # ``from repro import sim``
                for alias in node.names:
                    add(["repro", alias.name])
            else:
                add(parts)
        return out
    # Relative: ``repro/checks/rules/api.py`` -> package repro.checks.rules;
    # level k strips k-1 further components off the package.
    package = importer_path.split("/")[:-1]  # __init__.py *is* its package
    base = package[: len(package) - (node.level - 1)]
    if node.module:
        add(base + node.module.split("."))
    else:  # ``from .. import pkg`` — each alias is a submodule of base
        for alias in node.names:
            add(base + [alias.name])
    return out


@register_rule
class LayeringRule(Rule):
    """ARCH001: module-level imports must respect the layering DAG."""

    code = "ARCH001"
    name = "import-layering"
    description = "package import outside the layering DAG, or a cycle"
    severity = Severity.ERROR
    include = ("repro/*",)

    def check_project(self, project: Project) -> Iterable[Finding]:
        allowed = _transitive_allowed()
        findings: List[Finding] = []
        # Observed package-level import graph (for cycle detection).
        graph: Dict[str, Set[str]] = {}
        graph_edge_site: Dict[Tuple[str, str], Tuple[str, int]] = {}
        for module in project.modules:
            pkg = module.package
            if not pkg:
                # repro/__init__.py (the facade) and top-level modules sit
                # above every layer; still contribute no DAG constraint.
                continue
            if not isinstance(module.tree, ast.Module):
                continue
            for node in _module_level_imports(module.tree):
                for target, lineno in _target_packages(node, module.path):
                    if target == pkg or target not in LAYER_DAG and pkg not in LAYER_DAG:
                        continue
                    graph.setdefault(pkg, set()).add(target)
                    graph_edge_site.setdefault((pkg, target), (module.path, lineno))
                    if pkg not in LAYER_DAG:
                        findings.append(
                            self.finding(
                                module,
                                lineno,
                                f"package {pkg!r} is not in the layering DAG; "
                                "add it to repro/checks/rules/architecture.py",
                            )
                        )
                    elif target not in LAYER_DAG:
                        findings.append(
                            self.finding(
                                module,
                                lineno,
                                f"import target package {target!r} is not in "
                                "the layering DAG; add it to "
                                "repro/checks/rules/architecture.py",
                            )
                        )
                    elif target not in allowed[pkg]:
                        findings.append(
                            self.finding(
                                module,
                                lineno,
                                f"layering violation: {pkg} may not import "
                                f"{target} at module level (allowed: "
                                f"{', '.join(sorted(allowed[pkg])) or 'nothing'}; "
                                "use a function-scoped import for a runtime "
                                "inversion)",
                            )
                        )
        findings.extend(self._cycle_findings(graph, graph_edge_site))
        return findings

    def _cycle_findings(
        self,
        graph: Dict[str, Set[str]],
        sites: Dict[Tuple[str, str], Tuple[str, int]],
    ) -> List[Finding]:
        """One finding per import cycle among the observed packages."""
        findings: List[Finding] = []
        path: List[str] = []
        on_path: Set[str] = set()
        done: Set[str] = set()
        reported: Set[FrozenSet[str]] = set()

        def visit(pkg: str) -> None:
            if pkg in done:
                return
            if pkg in on_path:
                cycle = path[path.index(pkg) :] + [pkg]
                key = frozenset(cycle)
                if key not in reported:
                    reported.add(key)
                    first_edge = (cycle[0], cycle[1])
                    where, line = sites.get(first_edge, (f"repro/{pkg}", 1))
                    findings.append(
                        Finding(
                            code=self.code,
                            path=where,
                            line=line,
                            message=(
                                "import cycle: " + " -> ".join(cycle)
                            ),
                            severity=self.severity,
                        )
                    )
                return
            on_path.add(pkg)
            path.append(pkg)
            for dep in sorted(graph.get(pkg, ())):
                visit(dep)
            path.pop()
            on_path.discard(pkg)
            done.add(pkg)

        for pkg in sorted(graph):
            visit(pkg)
        return findings
