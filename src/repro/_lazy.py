"""Package re-exports that import their module on first attribute access.

A package ``__init__`` that imported everything it re-exports would
make ``import repro.store`` load numpy and the whole simulator, because
Python runs every parent package's ``__init__`` first. Instead each
package names its re-exports here and resolves one only when it is
read (PEP 562), so the control plane (store, campaign, service, CLI)
starts without the simulator.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, Iterable, List, Tuple


def lazy_exports(package: str, exports: Dict[str, Iterable[str]]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps each defining module to the names the package
    re-exports from it. A name resolves to the object its defining
    module holds, and is then bound in the package, so later reads are
    plain attribute lookups.
    """
    origin = {name: module for module, names in exports.items()
              for name in names}

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__
