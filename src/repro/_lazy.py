"""Lazy package exports (PEP 562).

Each package ``__init__`` names its public API in one map from exported
name to the submodule that defines it, and imports nothing up front::

    _EXPORTS = {"MachineConfig": "config", "Processor": "processor"}
    __all__ = list(_EXPORTS)
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

so ``import repro.experiments`` costs the package file, not the
simulator.  An exported name loads its submodule on first access; a name
that maps to its own submodule (``repro.workloads.programs``) is that
module.

What a lookup resolves is deliberately not stored in the package
namespace: every access reads the defining module's current binding.
Tools that rebind a function on its module (a profiler's wrappers, a
test's monkeypatch) and later restore it are then never left with a
stale copy in the package.
"""

from __future__ import annotations

import sys
from typing import Any, Callable


def lazy_exports(
    package: str, exports: dict[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for *package*, whose public names are
    *exports*: exported name -> defining submodule, relative to
    *package* (``"processor"``, ``"pipeline.processor"``)."""

    def __getattr__(name: str) -> Any:
        try:
            submodule = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        # __import__, not importlib.import_module: the import statement's
        # path, which ``python -X importtime`` logs.
        qualified = f"{package}.{submodule}"
        __import__(qualified)
        module = sys.modules[qualified]
        if submodule == name:
            return module
        return getattr(module, name)

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *exports})

    return __getattr__, __dir__
