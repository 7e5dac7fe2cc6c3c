"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package that re-exports names from its submodules would otherwise
import every one of them on ``import package``, so a command that
builds a config or reads the result store would still load the whole
simulator.  Instead, a package hands its name table to
:func:`lazy_exports` and installs the returned module-level
``__getattr__`` and ``__dir__``::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.sim.config": ("RunConfig",),
        "repro.sim.runner": ("TraceCache", "run_benchmark"),
    })

Each name imports its module on first access and is then cached as a
plain module attribute, so later lookups cost nothing.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair resolving ``table`` lazily.

    ``table`` maps a defining module to the names re-exported from it.
    ``__getattr__`` raises :class:`AttributeError` for any other name,
    so ``from package import submodule`` still falls through to the
    import system.
    """
    origin: Dict[str, str] = {
        name: module for module, names in table.items() for name in names
    }

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__
