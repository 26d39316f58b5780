"""Runtime: NumPy-backed execution of lowered SparseTIR programs.

Three execution tiers share identical semantics: the native kernels
(:mod:`repro.core.codegen.emit_c`, the loop nest as C, compiled once per
program family), the emitted stage-IV kernels
(:mod:`repro.core.codegen.emit_numpy`, a lane plan fixed into NumPy source)
and the element-by-element
:class:`Executor` (the numerical ground truth, and the fallback for programs
no compiled tier accepts).  :class:`Session` is the compile-once/run-many
entry point bundling format decomposition, kernel building (with structural
and persistent caching) and engine selection.
"""

from .._lazy import lazy_exports
from .session import Session, SessionStats, get_default_session

_EXPORTS = {"Executor": ".executor", "prepare_arrays": ".executor", "run_primfunc": ".executor"}

__all__ = [*_EXPORTS, "Session", "SessionStats", "get_default_session"]

__getattr__ = lazy_exports(globals(), _EXPORTS)
