"""PEP 562 exports: a package keeps every public name without importing, when
it is first touched, every submodule that defines one.

``import repro.runtime.session`` runs ``repro/__init__``, and importing one
format runs ``formats/__init__``; with eager re-exports each of those pulled in
the whole package, so a process that only loads kernels from the disk cache
imported the lowering passes, the emitters and the GPU model to do it.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, Mapping, Optional


def lazy_exports(namespace: Dict[str, Any], exports: Mapping[str, Optional[str]]) -> Callable[[str], Any]:
    """The module ``__getattr__`` of the package whose globals are *namespace*.

    *exports* maps a public name to the submodule that defines it
    (``"CSRMatrix": ".csr"``), or to ``None`` when the name *is* a submodule.
    The first access imports that submodule and caches the value in
    *namespace*, so ``__getattr__`` runs once per name.
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        if name not in exports:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        home = exports[name]
        module = importlib.import_module(home or f".{name}", package)
        value = namespace[name] = module if home is None else getattr(module, name)
        return value

    return __getattr__
