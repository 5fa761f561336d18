"""Rule framework: findings, registry, suppression scanning, the runner.

The engine is deliberately tiny: every rule is an AST pass over one
module (:meth:`Rule.check_module`) or over the whole scanned tree at
once (:meth:`Rule.check_project`, for cross-module rules like the import
layering).  Rules self-register via :func:`register_rule`; the CLI in
:mod:`repro.checks.cli` is a thin wrapper over :func:`run_checks`.
"""

from __future__ import annotations

import ast
import enum
import re
from dataclasses import dataclass
from pathlib import Path, PurePosixPath
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
    Union,
)

from .baseline import Baseline


class Severity(enum.Enum):
    """How bad a finding is; both levels currently fail the gate."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``path`` is the *package-relative* posix path (``repro/des/event.py``)
    so fingerprints are stable no matter which directory the engine was
    invoked from or on.
    """

    code: str
    path: str
    line: int
    message: str
    severity: Severity = Severity.ERROR

    @property
    def fingerprint(self) -> Tuple[str, str, str]:
        """Baseline identity: deliberately excludes the line number so
        unrelated edits above a grandfathered finding do not unbaseline
        it."""
        return (self.path, self.code, self.message)

    def format(self) -> str:
        where = f"{self.path}:{self.line}"
        return f"{where}: {self.code} [{self.severity.value}] {self.message}"


#: Same-line suppression comments: a hash followed by ``checks: ignore``
#: alone, or with codes — ``checks: ignore[DET001]``,
#: ``checks: ignore[DET001, PERF001]``.  (The examples here spell the
#: comment without its leading hash so this very file does not register
#: phantom suppressions — CHK001 would flag them as unused.)
_SUPPRESS_RE = re.compile(
    r"#\s*checks:\s*ignore(?:\[(?P<codes>[A-Z0-9_,\s]+)\])?"
)


def _scan_suppressions(text: str) -> Dict[int, Optional[FrozenSet[str]]]:
    """Map line number -> suppressed codes (``None`` = every code)."""
    out: Dict[int, Optional[FrozenSet[str]]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" not in line:
            continue
        m = _SUPPRESS_RE.search(line)
        if m is None:
            continue
        codes = m.group("codes")
        if codes is None:
            out[lineno] = None
        else:
            out[lineno] = frozenset(
                c.strip() for c in codes.split(",") if c.strip()
            )
    return out


def package_path_of(path: str) -> str:
    """Normalise *path* to the package-relative form used for scoping.

    ``src/repro/des/event.py`` -> ``repro/des/event.py``; paths that do
    not contain a ``repro`` segment are returned posix-normalised as
    given (fixture trees in the self-tests rely on this).
    """
    parts = PurePosixPath(Path(path).as_posix()).parts
    if "repro" in parts:
        idx = parts.index("repro")
        return "/".join(parts[idx:])
    return "/".join(parts)


class ModuleInfo:
    """One parsed source module plus its suppression table."""

    __slots__ = ("path", "text", "tree", "suppressions")

    def __init__(self, path: str, text: str, tree: ast.AST) -> None:
        self.path = path          # package-relative posix path
        self.text = text
        self.tree = tree
        self.suppressions = _scan_suppressions(text)

    @classmethod
    def from_source(cls, path: str, text: str) -> "ModuleInfo":
        """Parse *text*; raises SyntaxError for the caller to report."""
        return cls(package_path_of(path), text, ast.parse(text))

    def is_suppressed(self, code: str, line: int) -> bool:
        codes = self.suppressions.get(line, ...)
        if codes is ...:
            return False
        return codes is None or code in codes

    @property
    def package(self) -> str:
        """First-level subpackage (``des`` for ``repro/des/event.py``),
        or ``""`` for top-level modules."""
        parts = self.path.split("/")
        if len(parts) >= 3 and parts[0] == "repro":
            return parts[1]
        return ""


class Project:
    """Every module of one engine invocation, for cross-module rules."""

    __slots__ = ("modules", "_by_path", "callgraph_cache")

    def __init__(self, modules: Sequence[ModuleInfo]) -> None:
        self.modules = list(modules)
        self._by_path = {m.path: m for m in self.modules}
        #: Lazily built by :func:`repro.checks.callgraph.build_call_graph`
        #: so the interprocedural rules share one graph per invocation.
        self.callgraph_cache: Optional[object] = None

    def module(self, package_path: str) -> Optional[ModuleInfo]:
        return self._by_path.get(package_path)


class Rule:
    """Base class: subclass, set the class attributes, register.

    ``include``/``exclude`` are fnmatch patterns over the
    package-relative path; an empty ``include`` means every module.
    """

    code: str = ""
    name: str = ""
    description: str = ""
    severity: Severity = Severity.ERROR
    include: Tuple[str, ...] = ()
    exclude: Tuple[str, ...] = ()

    def applies_to(self, package_path: str) -> bool:
        from fnmatch import fnmatch

        if self.include and not any(
            fnmatch(package_path, pat) for pat in self.include
        ):
            return False
        return not any(fnmatch(package_path, pat) for pat in self.exclude)

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        return ()

    def check_project(self, project: Project) -> Iterable[Finding]:
        return ()

    def finding(self, module: ModuleInfo, line: int, message: str) -> Finding:
        return Finding(
            code=self.code,
            path=module.path,
            line=line,
            message=message,
            severity=self.severity,
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: add *cls* to the rule registry (keyed by code)."""
    if not cls.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if cls.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {cls.code}")
    _REGISTRY[cls.code] = cls
    return cls


def _load_builtin_rules() -> None:
    from . import rules  # noqa: F401  (import registers the rule classes)


def all_rules() -> List[Rule]:
    """One instance of every registered rule, sorted by code."""
    _load_builtin_rules()
    return [_REGISTRY[code]() for code in sorted(_REGISTRY)]


def get_rule(code: str) -> Rule:
    _load_builtin_rules()
    try:
        return _REGISTRY[code]()
    except KeyError:
        raise KeyError(
            f"unknown rule {code!r}; known: {', '.join(sorted(_REGISTRY))}"
        ) from None


#: Pseudo-code for files the engine could not parse at all.
SYNTAX_ERROR_CODE = "CHK000"


def _collect_files(paths: Sequence[str]) -> List[Path]:
    files: List[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.is_file():
            files.append(p)
        else:
            raise FileNotFoundError(raw)
    # De-duplicate while keeping order (overlapping roots).
    seen = set()
    unique = []
    for f in files:
        key = f.resolve()
        if key not in seen:
            seen.add(key)
            unique.append(f)
    return unique


def _parse_one(path_str: str) -> Union[ModuleInfo, Finding]:
    """Read and parse one file; a syntax error becomes a CHK000 finding."""
    text = Path(path_str).read_text(encoding="utf-8")
    try:
        return ModuleInfo.from_source(path_str, text)
    except SyntaxError as exc:
        return Finding(
            code=SYNTAX_ERROR_CODE,
            path=package_path_of(path_str),
            line=exc.lineno or 1,
            message=f"could not parse: {exc.msg}",
        )


def _parse_files(files: Sequence[Path]) -> List[Union[ModuleInfo, Finding]]:
    """Parse *files* in order."""
    return [_parse_one(str(f)) for f in files]


#: Code for ``checks: ignore`` comments that no longer suppress anything.
UNUSED_SUPPRESSION_CODE = "CHK001"


def _unused_suppressions(
    project: Project,
    used: Set[Tuple[str, int]],
    active_codes: Set[str],
    all_codes: Set[str],
) -> List[Finding]:
    """CHK001 findings for suppression comments that never fired.

    A coded suppression is judged only when *every* code it names ran in
    this invocation (otherwise the un-run rule might have fired); a bare
    ``checks: ignore`` is judged only when the full registry ran.
    """
    judgeable = active_codes - {UNUSED_SUPPRESSION_CODE, SYNTAX_ERROR_CODE}
    full_run = judgeable >= (all_codes - {UNUSED_SUPPRESSION_CODE})
    out: List[Finding] = []
    for module in project.modules:
        for line, codes in sorted(module.suppressions.items()):
            if (module.path, line) in used:
                continue
            if codes is None:
                if not full_run:
                    continue
                detail = "suppresses no finding of any rule"
            else:
                if not codes <= judgeable:
                    continue
                detail = f"suppresses no {', '.join(sorted(codes))} finding"
            out.append(
                Finding(
                    code=UNUSED_SUPPRESSION_CODE,
                    path=module.path,
                    line=line,
                    message=f"unused suppression: {detail}; remove the comment",
                    severity=Severity.WARNING,
                )
            )
    return out


def run_checks(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
    baseline: Optional[Baseline] = None,
) -> List[Finding]:
    """Run *rules* (default: all) over *paths*; return surviving findings.

    Suppressed (``checks: ignore[CODE]`` on the finding's line) and
    baselined findings are filtered out.  Unparseable files surface as
    ``CHK000`` findings rather than crashing the run.
    """
    active = list(rules) if rules is not None else all_rules()
    modules: List[ModuleInfo] = []
    findings: List[Finding] = []
    for parsed in _parse_files(_collect_files(paths)):
        if isinstance(parsed, ModuleInfo):
            modules.append(parsed)
        else:
            findings.append(parsed)
    project = Project(modules)
    for rule in active:
        for module in modules:
            if rule.applies_to(module.path):
                findings.extend(rule.check_module(module))
        findings.extend(rule.check_project(project))

    def suppressed(f: Finding) -> bool:
        mod = project.module(f.path)
        if mod is None:
            return False
        if f.code == UNUSED_SUPPRESSION_CODE:
            # A bare ignore must not shield its own unused-ness finding
            # (it would be unflaggable by construction); only an explicit
            # ``checks: ignore[CHK001]`` opts a line out.
            codes = mod.suppressions.get(f.line)
            return codes is not None and f.code in codes
        return mod.is_suppressed(f.code, f.line)

    def survivors(candidates: Iterable[Finding]) -> List[Finding]:
        kept = []
        for f in candidates:
            if suppressed(f):
                used_suppressions.add((f.path, f.line))
                continue
            if baseline is not None and f.fingerprint in baseline:
                continue
            kept.append(f)
        return kept

    used_suppressions: Set[Tuple[str, int]] = set()
    kept = survivors(findings)
    active_codes = {r.code for r in active}
    if UNUSED_SUPPRESSION_CODE in active_codes:
        _load_builtin_rules()
        kept.extend(
            survivors(
                _unused_suppressions(
                    project, used_suppressions, active_codes, set(_REGISTRY)
                )
            )
        )
    kept.sort(key=lambda f: (f.path, f.line, f.code, f.message))
    return kept
