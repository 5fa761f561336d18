"""Source-only import rerouting for ``REPRO_PURE_PYTHON=1``.

When the strict tier has been compiled with mypyc (``REPRO_COMPILE=1``
at install time), extension modules shadow the ``.py`` sources on
``sys.path``.  This module installs a meta-path finder that undoes the
shadowing for the tier packages only: any submodule whose resolved spec
points at an extension is re-resolved to the sibling ``.py`` file, so
the whole tier runs interpreted.  Installed by ``repro/__init__``
*before* any tier import when :func:`pure_python_forced`; a no-op on a
pure-python install (specs already point at sources).

Specs with no ``.py`` twin (e.g. the shared ``<pkg>__mypyc`` runtime
extension mypyc emits per build group) are left untouched — they are
harmless on their own and only referenced by the compiled modules we
are bypassing.

:func:`kernel_backend` says which build of the tier actually loaded.
Every ``BENCH_*.json`` host block records it, because compiled and
interpreted timings are not comparable.  This module sits outside the
tier, so it always runs interpreted.
"""

from __future__ import annotations

import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, PathFinder, SourceFileLoader
from importlib.util import spec_from_file_location
from types import ModuleType
from typing import Optional, Sequence

#: Package prefixes rerouted to source (the mypyc compilation tier).
PURE_PREFIXES = ("repro.des", "repro.reports", "repro.cache")

_EXT_SUFFIXES = tuple(EXTENSION_SUFFIXES)


def pure_python_forced() -> bool:
    """True when ``REPRO_PURE_PYTHON`` demands the interpreted tier."""
    return os.environ.get("REPRO_PURE_PYTHON", "") not in ("", "0")


def kernel_backend() -> str:
    """``"compiled"`` or ``"pure"``: which build of the kernel tier loaded."""
    module = sys.modules.get("repro.des.environment")
    origin = getattr(getattr(module, "__spec__", None), "origin", None) or ""
    return "compiled" if origin.endswith(_EXT_SUFFIXES) else "pure"


class _SourceOnlyFinder:
    """Meta-path finder preferring ``.py`` sources for the strict tier."""

    def find_spec(
        self,
        fullname: str,
        path: Optional[Sequence[str]] = None,
        target: Optional[ModuleType] = None,
    ):
        if not fullname.startswith(PURE_PREFIXES):
            return None
        spec = PathFinder.find_spec(fullname, path)
        if spec is None or not spec.origin:
            return None
        origin = spec.origin
        if not origin.endswith(_EXT_SUFFIXES):
            return spec  # already source (or namespace); use as-is
        for suffix in _EXT_SUFFIXES:
            if origin.endswith(suffix):
                source = origin[: -len(suffix)] + ".py"
                break
        if not os.path.isfile(source):
            return None  # no .py twin (mypyc group runtime lib) - skip
        return spec_from_file_location(
            fullname, source, loader=SourceFileLoader(fullname, source)
        )


def install() -> None:
    """Insert the source-only finder ahead of the default path finder."""
    if not any(isinstance(f, _SourceOnlyFinder) for f in sys.meta_path):
        sys.meta_path.insert(0, _SourceOnlyFinder())
