"""Target-specific code generation (Section 3.5) and the stage-IV backend."""

from ..._lazy import lazy_exports
from .build import Kernel, build  # ``build`` the function shadows the submodule of that name
from .native import UnsupportedForEmission

_EXPORTS = {
    "emit_numpy_source": ".emit_numpy",
    "horizontal_fuse": ".fusion",
    "launch_groups": ".fusion",
}

__all__ = ["Kernel", "build", "UnsupportedForEmission", *_EXPORTS]

__getattr__ = lazy_exports(globals(), _EXPORTS)
