"""PERF001: hot-path classes must keep their ``__slots__``.

PR 3's profile-driven optimisation pass gave the per-event / per-message
/ per-cache-entry classes ``__slots__`` (docs/PERFORMANCE.md inventories
the hot modules).  Losing the declaration is silent — the class still
works, just slower and fatter — so the regression is guarded statically.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from ..engine import Finding, ModuleInfo, Rule, Severity, register_rule

#: The hot modules inventoried in docs/PERFORMANCE.md.
HOT_MODULE_GLOBS = (
    "repro/des/*.py",
    "repro/net/channel.py",
    "repro/cache/*.py",
    # The population pool holds one PooledMember per absorbed client —
    # at megacell scale that is ~10^6 instances, so object layout IS the
    # memory bound the aggregation layer exists to enforce.
    "repro/sim/population.py",
)

#: Base classes under which ``__slots__`` is pointless or impossible.
#: Exception instances always carry a ``__dict__`` (BaseException), and
#: Enum/Protocol/NamedTuple/TypedDict machinery manages its own storage.
_EXEMPT_BASE_SUFFIXES = ("Error", "Exception", "Warning", "Interrupt")
_EXEMPT_BASE_NAMES = frozenset(
    {
        "BaseException",
        "Enum",
        "IntEnum",
        "StrEnum",
        "Flag",
        "IntFlag",
        "Protocol",
        "NamedTuple",
        "TypedDict",
    }
)


def _base_name(node: ast.expr) -> str:
    """Rightmost dotted component of a base-class expression."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Subscript):  # Generic[...] bases
        return _base_name(node.value)
    return ""


def _declares_slots(cls: ast.ClassDef) -> bool:
    for stmt in cls.body:
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    return False


def _dataclass_with_slots(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        if isinstance(deco, ast.Call):
            name = _base_name(deco.func)
            if name == "dataclass":
                for kw in deco.keywords:
                    if (
                        kw.arg == "slots"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                    ):
                        return True
    return False


def _is_exempt(cls: ast.ClassDef) -> bool:
    for base in cls.bases:
        name = _base_name(base)
        if name in _EXEMPT_BASE_NAMES or name.endswith(_EXEMPT_BASE_SUFFIXES):
            return True
    for kw in cls.keywords:  # class Foo(metaclass=..., total=...) styles
        if kw.arg == "metaclass":
            return True
    return False


@register_rule
class SlotsRule(Rule):
    """PERF001: classes in hot modules must declare ``__slots__``."""

    code = "PERF001"
    name = "hot-class-slots"
    description = "hot-module class without __slots__"
    severity = Severity.ERROR
    include = HOT_MODULE_GLOBS
    exclude = ("repro/*/__init__.py",)

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if _is_exempt(node):
                continue
            if _declares_slots(node) or _dataclass_with_slots(node):
                continue
            findings.append(
                self.finding(
                    module,
                    node.lineno,
                    f"class {node.name} in a hot module lacks __slots__ "
                    "(docs/PERFORMANCE.md inventory); subclasses of slotted "
                    "classes need an explicit __slots__ = () too",
                )
            )
        return findings
