"""Native stage-IV backend: emit a standalone C module for a stage-III program.

The emitted NumPy tier (:mod:`repro.core.codegen.emit_numpy`) already splits a
lowered program into a structural *plan* (lane expansion, gather/scatter index
tables, structural-zero masks — computed once per process) and a per-call
*run* body.  That run body still pays one NumPy dispatch per gather / compute
/ ``ufunc.at`` line, which dominates on small-nnz graph workloads.  This
module reuses the exact same plan machinery and compiles the run body down to
plain C loops over typed buffers:

* :func:`emit_c_source` walks the lowered program once and returns two
  sources: a **C module** whose ``run(bufs, tabs, ipar, fpar)`` function is
  the per-call body (one flat loop per store, gathering through plan-built
  index tables), and a **glue module** defining
  ``make_kernel(axes, aux, helpers, lib)`` whose body is the plan — the same
  Python plan lines the NumPy emitter would produce, plus the marshalling of
  index tables and scalar parameters into the C call.
* The C source deliberately contains **no sizes**: lane counts, gather
  indices and bounds all travel through the plan-built tables and the
  ``ipar`` scalar block.  Every structure of the same program family shares
  one C source, so one compilation (memoised by source hash) serves a whole
  tuning sweep or test battery.
* :func:`load_native` compiles the C source with the system compiler (cffi in
  ABI mode — no ``Python.h`` required), dlopens the shared object, executes
  the glue plan and returns the ``run(arrays)`` closure used by
  :meth:`~repro.core.codegen.build.Kernel.run`'s native tier.

Bit-exactness is the contract: every C operation mirrors the NumPy operation
of the emitted tier (same lane order, same NEP-50 promotion, same
structural-zero masking; compiled with ``-ffp-contract=off`` so no FMA
contraction changes results).  Constructs whose C semantics could diverge —
``exp``/``tanh``/``log`` (NumPy's SIMD routines are not bit-identical to
libm), floor division, value-dependent masks, boolean arithmetic — raise
:class:`UnsupportedForC` and the kernel falls back to the emitted NumPy tier,
so the native tier is never a correctness risk.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform as _platform
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..buffers import _np_dtype
from ..expr import (
    Add,
    And,
    BinaryOp,
    BufferLoad,
    Call,
    Cast,
    Div,
    EQ,
    Expr,
    FloatImm,
    GE,
    GT,
    IntImm,
    LE,
    LT,
    Max,
    Min,
    Mul,
    NE,
    Not,
    Or,
    Select,
    StringImm,
    Sub,
    Var,
)
from ..nputils import MAX_LANES, ragged_arange
from ..program import PrimFunc
from ..stmt import LetStmt, Stmt
from .emit_numpy import (
    _PLAN,
    _RUN,
    UnsupportedForEmission,
    _apply_aliases,
    _cse_plan,
    _Emitter,
    _indent,
    aux_arrays,
)
from .hazards import coords_to_positions

#: Bumped whenever the native-source contract (C layout, glue protocol, or
#: compile flags) changes; stale on-disk ``.so`` artifacts from an older
#: version load as cache misses and are rebuilt, never imported.
NATIVE_VERSION = 1

#: Environment variable disabling the native tier (``0`` / ``off`` / ``false``).
NATIVE_ENV_VAR = "REPRO_NATIVE"

_NATIVE_DISABLED_VALUES = {"0", "off", "false", "disabled", "none", "no"}

#: Compile flags.  ``-ffp-contract=off`` is load-bearing: without it GCC fuses
#: ``a*b + c`` into an FMA whose single rounding diverges from NumPy's two.
#: ``-fwrapv`` makes signed int64 overflow wrap exactly like NumPy's.
CFLAGS = (
    "-O2",
    "-fPIC",
    "-shared",
    "-fno-strict-aliasing",
    "-ffp-contract=off",
    "-fwrapv",
)

_COMPILE_TIMEOUT_S = 180.0


class UnsupportedForC(UnsupportedForEmission):
    """The program contains a construct the C emitter cannot fix into code.

    Subclasses :class:`UnsupportedForEmission`, so every caller that already
    treats the emitted tier as optional handles the native tier the same way.
    """


class NativeBuildError(RuntimeError):
    """Compiling or loading the native artifact failed (caller falls back)."""


# -- ctype lattice -------------------------------------------------------------
#
# C expressions carry a static type mirroring NumPy's NEP-50 promotion:
# ``f64``/``f32``/``i64`` are strong dtypes (arrays and NumPy scalars),
# ``u8`` is boolean, and ``ilit``/``flit`` are *weak* Python scalars whose
# promotion defers to the other operand — exactly the distinction NumPy makes
# between ``np.int64(2)`` and the literal ``2``.

_CDECL = {
    "f64": "double",
    "f32": "float",
    "i64": "int64_t",
    "i32": "int32_t",
    "u8": "uint8_t",
}
_CZERO = {"f64": "0.0", "f32": "0.0f", "i64": "(int64_t)0", "i32": "(int32_t)0"}
_BUFFER_CTYPES = {"float64": "f64", "float32": "f32", "int64": "i64", "int32": "i32"}

_INFIX_C = {Add: "+", Sub: "-", Mul: "*"}
_CMP_C = {LT: "<", LE: "<=", GT: ">", GE: ">=", EQ: "==", NE: "!="}

#: Weak Python scalars become *strong* NumPy arrays wherever the NumPy tier
#: materialises them with ``np.full`` (let bindings, whole-scalar store
#: values): ``np.full(n, 0.5)`` is float64, not a weak literal.  Promotion
#: against the strengthened type mirrors that tier bit-for-bit.
_STRENGTHEN = {"flit": "f64", "ilit": "i64"}


def _promote(a: str, b: str) -> str:
    """NEP-50 result type of a binary operation over the ctype lattice."""
    if a == b:
        return a
    pair = {a, b}
    if "u8" in pair:
        raise UnsupportedForC("boolean lanes in arithmetic")
    if pair == {"ilit", "flit"}:
        return "flit"
    if "f64" in pair:
        return "f64"
    if pair in ({"f32", "i64"}, {"f32", "i32"}):
        # int32/int64 do not fit float32; NumPy widens the pair to float64.
        return "f64"
    if "f32" in pair:
        return "f32"  # f32 with a weak scalar stays f32
    if pair == {"i32", "i64"}:
        return "i64"
    if pair == {"i32", "flit"}:
        return "f64"
    if "i32" in pair:
        return "i32"  # i32 with a weak int stays i32
    if "i64" in pair:
        return "f64" if "flit" in pair else "i64"
    raise UnsupportedForC(f"cannot promote {a!r} with {b!r}")


class _CVal:
    """One emitted C expression: code, static ctype, pending invalid masks.

    ``invalids`` lists plan-zone structural-zero masks not yet consumed by a
    load; the enclosing store folds them into its drop mask, mirroring the
    NumPy emitter's keep-filter.
    """

    __slots__ = ("code", "ctype", "invalids")

    def __init__(self, code: str, ctype: str, invalids: Optional[List[Any]] = None):
        self.code = code
        self.ctype = ctype
        self.invalids = invalids or []


#: C keywords that a buffer name must not collide with (buffer names become
#: C identifiers verbatim; Python's identifier check does not cover these).
_C_RESERVED = {
    "auto", "break", "case", "char", "const", "continue", "default", "do",
    "double", "else", "enum", "extern", "float", "for", "goto", "if",
    "inline", "int", "long", "register", "restrict", "return", "short",
    "signed", "sizeof", "static", "struct", "switch", "typedef", "union",
    "unsigned", "void", "volatile", "while", "run", "bufs", "tabs", "ipar",
    "fpar",
}

_C_HELPERS = """\
static inline double _min_f64(double a, double b) {
    return (a != a) ? a : ((b != b) ? b : ((a < b) ? a : b));
}
static inline double _max_f64(double a, double b) {
    return (a != a) ? a : ((b != b) ? b : ((a > b) ? a : b));
}
static inline float _min_f32(float a, float b) {
    return (a != a) ? a : ((b != b) ? b : ((a < b) ? a : b));
}
static inline float _max_f32(float a, float b) {
    return (a != a) ? a : ((b != b) ? b : ((a > b) ? a : b));
}
static inline int64_t _min_i64(int64_t a, int64_t b) { return (a < b) ? a : b; }
static inline int64_t _max_i64(int64_t a, int64_t b) { return (a > b) ? a : b; }
static inline int32_t _min_i32(int32_t a, int32_t b) { return (a < b) ? a : b; }
static inline int32_t _max_i32(int32_t a, int32_t b) { return (a > b) ? a : b; }\
"""


class _CEmitter(_Emitter):
    """Walks the lowered program emitting the plan in Python and the run in C.

    The plan zone is inherited wholesale from the NumPy emitter — every plan
    line this class adds (gather/store index tables with structural drops
    folded to ``-1``) is plain NumPy over structural data.  Run-zone work is
    routed through :meth:`_ceval`, which generates C expressions and
    registers the plan values they consume as typed tables (``tabs``) and
    scalar parameters (``ipar``/``fpar``).
    """

    def __init__(self, func: PrimFunc):
        super().__init__(func)
        self.crun: List[str] = []
        #: (plan expression, ctype) -> table slot, in registration order.
        self._ctabs: List[Tuple[str, str]] = []
        self._ctab_index: Dict[Tuple[str, str], int] = {}
        self._cipars: List[str] = []
        self._cipar_index: Dict[str, int] = {}
        self._cfpars: List[str] = []
        self._cfpar_index: Dict[str, int] = {}
        self._var_ctypes: Dict[Var, str] = {}
        self._stored: set[str] = set()

    # -- registration ----------------------------------------------------------
    def _bind_buffer(self, name: str) -> str:
        if name in _C_RESERVED:
            raise UnsupportedForC(f"buffer name {name!r} collides with a C keyword")
        return super()._bind_buffer(name)

    def _buffer_ctype(self, name: str) -> str:
        dtype = next(
            (str(_np_dtype(fb.dtype)) for fb in self.func.flat_buffers if fb.name == name),
            None,
        )
        ct = _BUFFER_CTYPES.get(dtype or "")
        if ct is None:
            raise UnsupportedForC(f"buffer {name!r} has unsupported dtype {dtype!r}")
        return ct

    def _tab(self, plan_code: str, ct: str) -> str:
        key = (plan_code, ct)
        slot = self._ctab_index.get(key)
        if slot is None:
            slot = len(self._ctabs)
            self._ctabs.append(key)
            self._ctab_index[key] = slot
        return f"_t{slot}"

    def _ipar(self, plan_code: str) -> str:
        slot = self._cipar_index.get(plan_code)
        if slot is None:
            slot = len(self._cipars)
            self._cipars.append(plan_code)
            self._cipar_index[plan_code] = slot
        return f"_ip{slot}"

    def _fpar(self, plan_code: str) -> str:
        slot = self._cfpar_index.get(plan_code)
        if slot is None:
            slot = len(self._cfpars)
            self._cfpars.append(plan_code)
            self._cfpar_index[plan_code] = slot
        return f"_fp{slot}"

    # -- zone probe ------------------------------------------------------------
    def _expr_zone(self, expr: Expr) -> str:
        """``_RUN`` iff the expression reads any value (non-auxiliary) buffer."""
        if isinstance(expr, BufferLoad):
            if expr.buffer.name not in self.aux_names:
                return _RUN
            return _PLAN if all(self._expr_zone(i) == _PLAN for i in expr.indices) else _RUN
        if isinstance(expr, BinaryOp):
            return _PLAN if (
                self._expr_zone(expr.a) == _PLAN and self._expr_zone(expr.b) == _PLAN
            ) else _RUN
        if isinstance(expr, Not):
            return self._expr_zone(expr.a)
        if isinstance(expr, Select):
            parts = (expr.condition, expr.true_value, expr.false_value)
            return _PLAN if all(self._expr_zone(p) == _PLAN for p in parts) else _RUN
        if isinstance(expr, Cast):
            return self._expr_zone(expr.value)
        if isinstance(expr, Call):
            return _PLAN if all(self._expr_zone(a) == _PLAN for a in expr.args) else _RUN
        return _PLAN  # literals and variables (loop/let vars are plan-bound)

    # -- static dtype inference ------------------------------------------------
    def _infer_ctype(self, expr: Expr) -> str:
        """The NEP-50 ctype a plan-zone expression evaluates to."""
        if isinstance(expr, IntImm):
            return "ilit"
        if isinstance(expr, FloatImm):
            return "flit"
        if isinstance(expr, Var):
            return self._var_ctypes.get(expr, "i64")  # loop variables are int64
        if isinstance(expr, BufferLoad):
            return self._buffer_ctype(expr.buffer.name)
        if isinstance(expr, BinaryOp):
            kind = type(expr)
            if kind in _CMP_C or kind in (And, Or):
                return "u8"
            a = self._infer_ctype(expr.a)
            b = self._infer_ctype(expr.b)
            ct = _promote(a, b)
            if kind is Div and ct in ("i64", "ilit"):
                return "f64"  # NumPy true-divide of integers yields float64
            return ct
        if isinstance(expr, Not):
            return "u8"
        if isinstance(expr, Select):
            return _promote(
                self._infer_ctype(expr.true_value), self._infer_ctype(expr.false_value)
            )
        if isinstance(expr, Cast):
            if expr.dtype.startswith("int"):
                inner = self._infer_ctype(expr.value)
                return "ilit" if inner == "ilit" else "i64"
            if expr.dtype.startswith("float"):
                inner = self._infer_ctype(expr.value)
                return "flit" if inner in ("ilit", "flit") else "f64"
            return self._infer_ctype(expr.value)
        if isinstance(expr, Call):
            if expr.func in ("exp", "tanh", "sqrt", "log"):
                inner = self._infer_ctype(expr.args[0])
                return inner if inner in ("f32", "f64", "flit") else "f64"
            if expr.func == "abs":
                inner = self._infer_ctype(expr.args[0])
                return inner if inner != "u8" else "i64"
            return "i64"  # sparse position searches produce int64 lanes
        raise UnsupportedForC(f"cannot type expression {type(expr).__name__}")

    # -- statement walk --------------------------------------------------------
    def _walk(self, stmt: Stmt, env: Dict[Var, Any], n_code: str, mode: str) -> None:
        if isinstance(stmt, LetStmt) and mode == "compute":
            if self._expr_zone(stmt.value) == _RUN:
                raise UnsupportedForC("let binding depends on value data")
            # The NumPy tier binds let values as lane arrays (np.full for
            # scalars), so a weak literal becomes a strong f64/i64 array.
            ct = self._infer_ctype(stmt.value)
            self._var_ctypes[stmt.var] = _STRENGTHEN.get(ct, ct)
        super()._walk(stmt, env, n_code, mode)

    def _emit_store(self, store: Any, env: Dict[Var, Any], n_code: str) -> None:
        if len(store.indices) != 1:
            raise UnsupportedForC("stage-III stores must use a single flat index")
        name = store.buffer.name
        if name in self.aux_names:
            raise UnsupportedForC(f"store to auxiliary buffer {name!r}")
        size = self.flat_sizes.get(name)
        if size is None:
            raise UnsupportedForC(f"store to unknown flat buffer {name!r}")
        buf_ct = self._buffer_ctype(name)
        array = self._bind_buffer(name)
        self._stored.add(name)

        residual = self._store_forms.get(id(store))
        value_expr = residual[1] if residual is not None else store.value
        if self._expr_zone(store.indices[0]) == _RUN:
            self._emit_run_index_store(
                store, env, n_code, residual, value_expr, buf_ct, array, size
            )
            return
        index = self._eval(store.indices[0], env, n_code)
        cval = self._ceval(value_expr, env, n_code)

        # Plan: one int64 scatter table per store, with every dropped lane
        # (out of bounds, or structurally invalid through the index or the
        # value) folded to -1 — the C loop's skip marker.  Mirrors the NumPy
        # emitter's keep-filter exactly: same lanes survive, same order.
        six = self._fresh("six")
        self._line(
            _PLAN,
            f"{six} = {self._as_lanes(index, n_code)}.astype(np.int64, copy=False)",
        )
        bad = f"({six} < 0) | ({six} >= {size})"
        for inv in [index.invalid] + cval.invalids:
            if inv is not None:
                if inv.zone == _RUN:
                    raise UnsupportedForC("value-dependent structural-zero mask")
                bad = f"({bad}) | {inv.code}"
        st = self._fresh("st")
        self._line(_PLAN, f"{st} = np.where({bad}, -1, {six})")
        tab = self._tab(st, "i64")
        count = self._ipar(f"int({n_code})")
        assign = self._store_assign(residual, cval, buf_ct, array)

        comment = repr(store).replace("*/", "* /").replace("\n", " ")
        self.crun.append(
            f"/* {comment} */\n"
            f"for (int64_t _l = 0; _l < {count}; ++_l) {{\n"
            f"    int64_t _si = {tab}[_l];\n"
            f"    if (_si < 0) continue;\n"
            f"    {assign}\n"
            f"}}"
        )

    def _emit_run_index_store(
        self,
        store: Any,
        env: Dict[Var, Any],
        n_code: str,
        residual: Any,
        value_expr: Expr,
        buf_ct: str,
        array: str,
        size: int,
    ) -> None:
        """Scatter through an index computed from value data (hyb rowmaps).

        The index expression reads a rebindable buffer, so no plan-time
        scatter table exists; the C loop evaluates it per lane instead.  The
        NumPy tier's keep-filter becomes a bounds test plus an optional
        structural-skip table, applied in lane order so duplicate targets
        accumulate identically to ``np.add.at`` over the kept lanes.
        """
        cidx = self._ceval(store.indices[0], env, n_code)
        if cidx.ctype not in ("i64", "ilit"):
            raise UnsupportedForC("store index is not integer-typed")
        cval = self._ceval(value_expr, env, n_code)
        skips = []
        for inv in cidx.invalids + cval.invalids:
            if inv is None:
                continue
            if inv.zone == _RUN:
                raise UnsupportedForC("value-dependent structural-zero mask")
            skips.append(inv.code)
        guard = ""
        if skips:
            bad = " | ".join(f"({code})" for code in skips)
            badtab = self._tab(f"np.asarray({bad}, dtype=bool)", "u8")
            guard = f"    if ({badtab}[_l]) continue;\n"
        count = self._ipar(f"int({n_code})")
        bound = self._ipar(f"int({size})")
        assign = self._store_assign(residual, cval, buf_ct, array)

        comment = repr(store).replace("*/", "* /").replace("\n", " ")
        self.crun.append(
            f"/* {comment} */\n"
            f"for (int64_t _l = 0; _l < {count}; ++_l) {{\n"
            f"{guard}"
            f"    int64_t _si = (int64_t)({cidx.code});\n"
            f"    if (_si < 0 || _si >= {bound}) continue;\n"
            f"    {assign}\n"
            f"}}"
        )

    def _store_assign(self, residual: Any, cval: _CVal, buf_ct: str, array: str) -> str:
        """The per-lane assignment statement for a (possibly reducing) store."""
        if residual is None:
            return f"{array}[_si] = {self._coerce(cval, buf_ct)};"
        op = "+" if residual[0] == "add" else "*"
        # ``np.ufunc.at`` sees the value as an *array*: the NumPy tier
        # expands a whole-scalar residual with np.full (strong f64/i64),
        # resolves the loop at the promoted dtype and casts each result
        # back — e.g. ``f32 *= 0.353..`` runs in float64 there.
        val_ct = _STRENGTHEN.get(cval.ctype, cval.ctype)
        promo = _promote(buf_ct, val_ct)
        if promo == buf_ct:
            return f"{array}[_si] {op}= {self._coerce(cval, buf_ct)};"
        return (
            f"{array}[_si] = ({_CDECL[buf_ct]})((({_CDECL[promo]}){array}[_si])"
            f" {op} {self._coerce(cval, promo)});"
        )

    # -- C expression emission ---------------------------------------------------
    def _ceval(self, expr: Expr, env: Dict[Var, Any], n_code: str) -> _CVal:
        if isinstance(expr, IntImm):
            return _CVal(str(int(expr.value)), "ilit")
        if isinstance(expr, FloatImm):
            value = float(expr.value)
            if not math.isfinite(value):
                raise UnsupportedForC("non-finite float literal")
            return _CVal(repr(value), "flit")
        if isinstance(expr, StringImm):
            raise UnsupportedForC("string value in a compute expression")
        if self._expr_zone(expr) == _PLAN:
            return self._plan_ref(expr, env, n_code)
        if isinstance(expr, BufferLoad):
            return self._ceval_load(expr, env, n_code)
        if isinstance(expr, BinaryOp):
            return self._ceval_binary(expr, env, n_code)
        if isinstance(expr, Not):
            a = self._ceval(expr.a, env, n_code)
            return _CVal(f"(!{a.code})", "u8", a.invalids)
        if isinstance(expr, Select):
            return self._ceval_select(expr, env, n_code)
        if isinstance(expr, Cast):
            return self._ceval_cast(expr, env, n_code)
        if isinstance(expr, Call):
            return self._ceval_call(expr, env, n_code)
        raise UnsupportedForC(f"cannot emit C for {type(expr).__name__}")

    def _plan_ref(self, expr: Expr, env: Dict[Var, Any], n_code: str) -> _CVal:
        """Evaluate a pure-plan subtree in Python and surface it to C.

        Lane arrays become typed tables; scalars travel through the
        ``ipar``/``fpar`` blocks.  Weak Python scalars keep their weak ctype
        (``ilit``/``flit``) so NEP-50 promotion against them matches NumPy;
        the glue's marshalling asserts every table's dtype against the static
        inference, so a mis-typed plan value degrades to a fallback instead
        of a wrong answer.
        """
        val = self._eval(expr, env, n_code)
        invalids = [val.invalid] if val.invalid is not None else []
        ct = self._infer_ctype(expr)
        if val.lanes:
            if ct in ("ilit", "flit"):
                raise UnsupportedForC("weak-typed lane array (internal)")
            tab = self._tab(val.code, ct)
            return _CVal(f"{tab}[_l]", ct, invalids)
        if ct == "u8":
            return _CVal(self._ipar(f"int(bool({val.code}))"), "u8", invalids)
        if ct in ("i64", "ilit"):
            return _CVal(self._ipar(f"int({val.code})"), ct, invalids)
        if ct == "i32":
            # The ipar block carries int64; the cast restores int32 semantics
            # (a strong np.int32 scalar promotes like an int32 array).
            return _CVal(f"((int32_t){self._ipar(f'int({val.code})')})", "i32", invalids)
        if ct == "f32":
            # float32 -> float64 -> float32 round-trips exactly; referencing
            # the fpar slot through a float cast keeps f32 arithmetic.
            return _CVal(f"((float){self._fpar(f'float({val.code})')})", "f32", invalids)
        return _CVal(self._fpar(f"float({val.code})"), ct, invalids)  # f64 / flit

    def _ceval_load(self, expr: BufferLoad, env: Dict[Var, Any], n_code: str) -> _CVal:
        if len(expr.indices) != 1:
            raise UnsupportedForC("stage-III loads must use a single flat index")
        name = expr.buffer.name
        size = self.flat_sizes.get(name)
        if size is None:
            raise UnsupportedForC(f"load from unknown flat buffer {name!r}")
        ct = self._buffer_ctype(name)
        array = self._bind_buffer(name)
        index = self._eval(expr.indices[0], env, n_code)
        if index.zone == _RUN:
            raise UnsupportedForC("load index depends on value data")

        if not index.lanes:
            pos = self._fresh("npos")
            self._line(index.zone, f"{pos} = int({index.code})")
            guard = f"0 <= {pos} < {size}"
            if index.invalid is not None:
                guard = f"not bool({index.invalid.code}) and {guard}"
            safe = self._fresh("npos")
            self._line(index.zone, f"{safe} = {pos} if ({guard}) else -1")
            ref = self._ipar(safe)
            code = f"(({ref} >= 0) ? {array}[{ref}] : {_CZERO[ct]})"
            return _CVal(code, ct)

        gi = self._fresh("gi")
        self._line(
            index.zone, f"{gi} = {index.code}.astype(np.int64, copy=False)"
        )
        bad = f"({gi} < 0) | ({gi} >= {size})"
        if index.invalid is not None:
            bad = f"({bad}) | {index.invalid.code}"
        gt = self._fresh("gt")
        self._line(index.zone, f"{gt} = np.where({bad}, -1, {gi})")
        tab = self._tab(gt, "i64")
        # A load consumes the structural zero (it evaluates to 0), so the
        # invalid mask does not propagate past it — same as the NumPy tier.
        code = f"(({tab}[_l] >= 0) ? {array}[{tab}[_l]] : {_CZERO[ct]})"
        return _CVal(code, ct)

    def _ceval_binary(self, expr: BinaryOp, env: Dict[Var, Any], n_code: str) -> _CVal:
        a = self._ceval(expr.a, env, n_code)
        b = self._ceval(expr.b, env, n_code)
        invalids = a.invalids + b.invalids
        kind = type(expr)
        infix = _INFIX_C.get(kind)
        if infix is not None:
            ct = _promote(a.ctype, b.ctype)
            code = f"({self._coerce(a, ct)} {infix} {self._coerce(b, ct)})"
            return _CVal(code, ct, invalids)
        cmp = _CMP_C.get(kind)
        if cmp is not None:
            ct = _promote(a.ctype, b.ctype)
            code = f"({self._coerce(a, ct)} {cmp} {self._coerce(b, ct)})"
            return _CVal(code, "u8", invalids)
        if kind in (And, Or):
            op = "&&" if kind is And else "||"
            return _CVal(f"({a.code} {op} {b.code})", "u8", invalids)
        if kind in (Min, Max):
            ct = _promote(a.ctype, b.ctype)
            if ct in ("ilit", "flit"):
                raise UnsupportedForC("weak-typed min/max (internal)")
            helper = ("_min_" if kind is Min else "_max_") + ct
            code = f"{helper}({self._coerce(a, ct)}, {self._coerce(b, ct)})"
            return _CVal(code, ct, invalids)
        if kind is Div:
            ct = _promote(a.ctype, b.ctype)
            if ct in ("i64", "ilit"):
                ct = "f64"  # NumPy true divide: integer operands widen to f64
            code = f"({self._coerce(a, ct)} / {self._coerce(b, ct)})"
            return _CVal(code, ct, invalids)
        raise UnsupportedForC(f"unsupported binary op {kind.__name__}")

    def _ceval_select(self, expr: Select, env: Dict[Var, Any], n_code: str) -> _CVal:
        cond = self._ceval(expr.condition, env, n_code)
        true = self._ceval(expr.true_value, env, n_code)
        false = self._ceval(expr.false_value, env, n_code)
        if true.invalids or false.invalids:
            # Branch-chosen invalid masks need per-lane selection; the NumPy
            # tier handles it, so fall back rather than approximate.
            raise UnsupportedForC("structural zero inside a select branch")
        ct = _promote(true.ctype, false.ctype)
        if ct in ("ilit", "flit"):
            raise UnsupportedForC("weak-typed select (internal)")
        code = f"({cond.code} ? {self._coerce(true, ct)} : {self._coerce(false, ct)})"
        return _CVal(code, ct, cond.invalids)

    def _ceval_cast(self, expr: Cast, env: Dict[Var, Any], n_code: str) -> _CVal:
        value = self._ceval(expr.value, env, n_code)
        if expr.dtype.startswith("int"):
            if value.ctype == "ilit":
                return value  # int(int) stays a weak Python scalar
            if value.ctype == "flit":
                raise UnsupportedForC("cast of a weak float to int")
            return _CVal(f"((int64_t){value.code})", "i64", value.invalids)
        if expr.dtype.startswith("float"):
            if value.ctype == "flit":
                return value  # float(float) stays a weak Python scalar
            if value.ctype == "ilit":
                raise UnsupportedForC("cast of a weak int to float")
            return _CVal(f"((double){value.code})", "f64", value.invalids)
        return value

    def _ceval_call(self, call: Call, env: Dict[Var, Any], n_code: str) -> _CVal:
        if call.func == "sqrt":
            a = self._ceval(call.args[0], env, n_code)
            if a.ctype == "f32":
                return _CVal(f"sqrtf({a.code})", "f32", a.invalids)
            return _CVal(f"sqrt({self._coerce(a, 'f64')})", "f64", a.invalids)
        if call.func == "abs":
            a = self._ceval(call.args[0], env, n_code)
            if a.ctype == "f32":
                return _CVal(f"fabsf({a.code})", "f32", a.invalids)
            if a.ctype in ("f64", "flit"):
                return _CVal(f"fabs({self._coerce(a, 'f64')})", "f64", a.invalids)
            if a.ctype == "i32":
                # The narrowing cast wraps abs(INT32_MIN) back to INT32_MIN,
                # exactly like NumPy's int32 abs.
                return _CVal(f"((int32_t)llabs({self._coerce(a, 'i64')}))", "i32", a.invalids)
            return _CVal(f"llabs({self._coerce(a, 'i64')})", "i64", a.invalids)
        # exp/tanh/log: NumPy's SIMD implementations are not bit-identical to
        # libm, so these stay on the NumPy tier.  Position searches are
        # plan-zone and never reach here.
        raise UnsupportedForC(f"intrinsic {call.func!r} has no bit-exact C form")

    def _coerce(self, val: _CVal, target: str) -> str:
        src, code = val.ctype, val.code
        if src == target:
            return code
        if target == "f64":
            if src == "flit":
                return code  # a weak float is already a double expression
            return f"((double)({code}))"
        if target == "f32":
            # Weak Python scalars convert to float32 in one rounding step
            # (int64->float / double->float), matching NEP-50 exactly.
            return f"((float)({code}))"
        if target == "i64":
            # Float sources only occur at store boundaries, where NumPy's
            # astype truncates toward zero — as does the C cast.
            return f"((int64_t)({code}))"
        if target == "i32":
            return f"((int32_t)({code}))"
        raise UnsupportedForC(f"cannot coerce {src!r} to {target!r}")

    # -- assembly --------------------------------------------------------------
    def emit(self) -> Tuple[str, str]:
        body = self.func.body
        self.crun.append("/* ---- pass 1: reduction initialisation ---- */")
        self._walk(body, {}, "1", "init")
        self.crun.append("/* ---- pass 2: compute ---- */")
        self._walk(body, {}, "1", "compute")
        for line in self.run:
            # The inherited plan machinery must never have produced Python
            # run-zone code: everything per-call lives in the C body.
            if line.lstrip() and not line.lstrip().startswith("#"):
                raise UnsupportedForC("run-zone Python leaked into the C emitter")
        plan_blocks, aliases = _cse_plan(self.plan)
        return self._render_c(), self._render_glue(plan_blocks, aliases)

    def _render_c(self) -> str:
        lines: List[str] = [
            f"/* Emitted C kernel for {self.func.name!r} (native stage-IV backend).",
            " *",
            f" * Generated by repro.core.codegen.emit_c v{NATIVE_VERSION}; do not edit.",
            " * The per-call body: one flat loop per store, gathering through the",
            " * plan-built index tables (tabs) with -1 marking dropped lanes.",
            " * Sizes never appear here — every structure of this program family",
            " * shares this source, so one compile serves the whole family.",
            " */",
            "#include <stdint.h>",
            "#include <stdlib.h>",
            "#include <math.h>",
            "",
            _C_HELPERS,
            "",
            "int run(void **bufs, void **tabs, const int64_t *ipar, const double *fpar)",
            "{",
            "    (void) bufs; (void) tabs; (void) ipar; (void) fpar;",
        ]
        for slot, name in enumerate(self._val_used):
            decl = _CDECL[self._buffer_ctype(name)]
            const = "" if name in self._stored else "const "
            lines.append(f"    {const}{decl} *{name} = ({const}{decl} *) bufs[{slot}];")
        for slot, (_, ct) in enumerate(self._ctabs):
            decl = _CDECL[ct]
            lines.append(f"    const {decl} *_t{slot} = (const {decl} *) tabs[{slot}];")
        for slot in range(len(self._cipars)):
            lines.append(f"    const int64_t _ip{slot} = ipar[{slot}];")
        for slot in range(len(self._cfpars)):
            lines.append(f"    const double _fp{slot} = fpar[{slot}];")
        lines.append("")
        for block in self.crun:
            lines.extend(_indent(block, 1))
        lines.append("    return 0;")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def _render_glue(self, plan_blocks: List[str], aliases: Dict[str, str]) -> str:
        def fix(code: str) -> str:
            return _apply_aliases(code, aliases)

        plan_text = "\n".join(plan_blocks)
        helper_lines = ["np = helpers['np']"]
        if "ragged_arange(" in plan_text:
            helper_lines.append("ragged_arange = helpers['ragged_arange']")
        if "coords_to_positions(" in plan_text:
            helper_lines.append("coords_to_positions = helpers['coords_to_positions']")
        helper_lines.append("_marshal = helpers['marshal']")
        for name in self._aux_used:
            helper_lines.append(f"{name} = aux[{name!r}]")

        lines: List[str] = [
            f'"""Native glue for {self.func.name!r} (stage-IV C backend).',
            "",
            f"Generated by repro.core.codegen.emit_c v{NATIVE_VERSION}; do not edit.",
            "The make_kernel body is the plan: lane expansion and gather/scatter",
            "tables fixed once from the structural data, then marshalled into the",
            "compiled run() of the companion C module.",
            '"""',
            "",
            f"MAX_LANES = {MAX_LANES}",
            "",
            "",
            "def make_kernel(axes, aux, helpers, lib):",
        ]
        for text in helper_lines:
            lines.extend(_indent(text, 1))
        lines.append("    # ---- plan: computed once from structural data ----")
        for text in plan_blocks:
            lines.extend(_indent(text, 1))
        lines.append("    _tabs = [")
        for code, ct in self._ctabs:
            lines.append(f"        _marshal({fix(code)}, {ct!r}),")
        lines.append("    ]")
        lines.append("    _ipar = np.asarray([")
        for code in self._cipars:
            lines.append(f"        {fix(code)},")
        lines.append("    ], dtype=np.int64)")
        lines.append("    _fpar = np.asarray([")
        for code in self._cfpars:
            lines.append(f"        {fix(code)},")
        lines.append("    ], dtype=np.float64)")
        lines.append(
            "    return helpers['native_invoke']"
            f"(lib, _tabs, _ipar, _fpar, {list(self._val_used)!r})"
        )
        return "\n".join(lines) + "\n"


def emit_c_source(func: PrimFunc) -> Tuple[str, str]:
    """Emit the native (C, glue) source pair for a stage-III program.

    Raises :class:`UnsupportedForC` (a subclass of
    :class:`~repro.core.codegen.emit_numpy.UnsupportedForEmission`) when the
    program falls outside the native fragment; callers fall back to the
    emitted NumPy tier.
    """
    return _CEmitter(func).emit()


# -- toolchain ----------------------------------------------------------------
def find_compiler() -> Optional[str]:
    """Path of the C compiler to use, or ``None`` when the tier is unavailable.

    ``$REPRO_NATIVE=off`` disables the tier; ``$CC`` (when set) names the
    *only* candidate — pointing it at a non-existent path is the supported
    way to simulate a machine without a compiler.  Deliberately not memoised
    so tests (and the no-compiler CI lane) can flip the environment per test.
    """
    gate = os.environ.get(NATIVE_ENV_VAR)
    if gate is not None and gate.strip().lower() in _NATIVE_DISABLED_VALUES:
        return None
    try:
        import cffi  # noqa: F401  (ships with the toolchain; never installed here)
    except ImportError:  # pragma: no cover - cffi is part of the baked image
        return None
    cc = os.environ.get("CC")
    candidates = [cc] if cc else ["cc", "gcc", "clang"]
    for candidate in candidates:
        if not candidate:
            continue
        path = shutil.which(candidate)
        if path:
            return path
    return None


def toolchain_available() -> bool:
    """Whether the native tier can compile on this machine, right now."""
    return find_compiler() is not None


def native_tag() -> str:
    """Platform + Python-ABI tag a compiled artifact is keyed by on disk."""
    return f"{sys.platform}-{_platform.machine()}-{sys.implementation.cache_tag}"


def source_sha(c_source: str) -> str:
    return hashlib.sha256(c_source.encode()).hexdigest()


# -- compilation + loading -----------------------------------------------------
_FFI: Any = None
_FFI_LOCK = threading.Lock()

#: sha256(C source) -> dlopened library (or ``False`` after a failed build),
#: so a hypothesis battery over many structures of one program family
#: compiles exactly once per process.
_LIB_MEMO: Dict[str, Any] = {}
_MEMO_LOCK = threading.Lock()

_SCRATCH: Optional[Path] = None


def _get_ffi() -> Any:
    global _FFI
    with _FFI_LOCK:
        if _FFI is None:
            import cffi

            ffi = cffi.FFI()
            ffi.cdef(
                "int run(void **bufs, void **tabs,"
                " const int64_t *ipar, const double *fpar);"
            )
            _FFI = ffi
        return _FFI


def _scratch_dir() -> Path:
    """Per-process directory for compiled artifacts with no disk cache."""
    global _SCRATCH
    with _MEMO_LOCK:
        if _SCRATCH is None:
            _SCRATCH = Path(tempfile.mkdtemp(prefix="repro-native-"))
            import atexit

            atexit.register(shutil.rmtree, str(_SCRATCH), True)
        return _SCRATCH


def compile_so(c_source: str, out_path: Path) -> None:
    """Compile *c_source* into a shared object at *out_path* (atomically)."""
    compiler = find_compiler()
    if compiler is None:
        raise NativeBuildError("no C compiler available")
    with tempfile.TemporaryDirectory(prefix="repro-cc-") as tmpdir:
        src = Path(tmpdir) / "kernel.c"
        obj = Path(tmpdir) / "kernel.so"
        src.write_text(c_source)
        try:
            proc = subprocess.run(
                [compiler, *CFLAGS, str(src), "-o", str(obj), "-lm"],
                capture_output=True,
                text=True,
                timeout=_COMPILE_TIMEOUT_S,
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise NativeBuildError(f"C compiler failed to run: {exc}") from exc
        if proc.returncode != 0:
            raise NativeBuildError(
                f"C compilation failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}"
            )
        out_path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(out_path.parent), suffix=".so.tmp")
        os.close(fd)
        shutil.copy(str(obj), tmp)
        os.replace(tmp, out_path)


def _dlopen(path: Path) -> Any:
    return _get_ffi().dlopen(str(path))


def _obtain_lib(sha: str, c_source: str, disk: Any, key: Optional[str], stats: Any) -> Any:
    """A dlopened library for *c_source*: disk-cached artifact or fresh build."""
    if disk is not None and key is not None:
        cached = disk.get_native(key, sha)
        if cached is not None:
            try:
                lib = _dlopen(cached)
            except OSError:
                disk.discard_native(key)
            else:
                if stats is not None:
                    stats.native_hits += 1
                return lib
    so_path: Optional[Path] = None
    if disk is not None and key is not None:
        so_path = disk.reserve_native(key)
    if so_path is None:
        so_path = _scratch_dir() / f"{sha[:32]}.so"
    compile_so(c_source, so_path)
    if disk is not None and key is not None:
        disk.publish_native(key, c_source, sha)
    lib = _dlopen(so_path)
    if stats is not None:
        stats.native_rebuilds += 1
    return lib


def _marshal(value: Any, ct: str) -> np.ndarray:
    """Check a plan table against its statically inferred dtype and pack it.

    A mismatch means the static inference in :class:`_CEmitter` disagrees
    with what the plan actually computed; raising here turns that into a
    fallback to the NumPy tier instead of a silently wrong answer.
    """
    arr = np.asarray(value)
    if ct == "u8":
        if arr.dtype != np.bool_:
            raise NativeBuildError(f"plan table expected bool, got {arr.dtype}")
        return np.ascontiguousarray(arr.astype(np.uint8))
    expected = {"i64": np.int64, "i32": np.int32, "f64": np.float64, "f32": np.float32}[ct]
    if arr.dtype != expected:
        raise NativeBuildError(f"plan table expected {np.dtype(expected)}, got {arr.dtype}")
    return np.ascontiguousarray(arr)


def _native_invoke(
    lib: Any,
    tabs: List[np.ndarray],
    ipar: np.ndarray,
    fpar: np.ndarray,
    bufnames: List[str],
) -> Any:
    """Bind the marshalled plan to the compiled library; return ``run(arrays)``."""
    ffi = _get_ffi()
    keepalive = (list(tabs), np.ascontiguousarray(ipar), np.ascontiguousarray(fpar))
    tab_ptrs = ffi.new(
        "void *[]", [ffi.cast("void *", t.ctypes.data) for t in keepalive[0]] or [ffi.NULL]
    )
    ipar_ptr = ffi.cast("int64_t *", keepalive[1].ctypes.data)
    fpar_ptr = ffi.cast("double *", keepalive[2].ctypes.data)

    def run(arrays: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        bufs = [arrays[name] for name in bufnames]
        for buf in bufs:
            if not buf.flags.c_contiguous:
                raise NativeBuildError("native tier requires contiguous buffers")
        buf_ptrs = ffi.new(
            "void *[]", [ffi.cast("void *", b.ctypes.data) for b in bufs] or [ffi.NULL]
        )
        rc = lib.run(buf_ptrs, tab_ptrs, ipar_ptr, fpar_ptr)
        if rc != 0:
            raise RuntimeError(f"native kernel returned {rc}")
        return arrays

    run._keepalive = keepalive  # pin table/param storage for the library's lifetime
    return run


def load_native(
    func: PrimFunc,
    c_source: str,
    glue_source: str,
    disk: Any = None,
    key: Optional[str] = None,
    stats: Any = None,
) -> Any:
    """Compile (or reuse) the native artifact and execute the glue plan.

    Returns the ``run(arrays)`` closure of the native tier.  Any failure —
    no compiler, a compile error, a plan that overflows ``MAX_LANES``, a
    marshalling mismatch — raises, and the caller marks the native tier
    unavailable for this kernel (deciding the fallback once).

    ``disk``/``key`` select the persistent artifact store (shared across
    processes; see :meth:`DiskKernelCache.get_native`); ``stats`` receives
    ``native_hits`` / ``native_rebuilds``.
    """
    sha = source_sha(c_source)
    with _MEMO_LOCK:
        lib = _LIB_MEMO.get(sha)
    if lib is False:
        raise NativeBuildError("native build previously failed for this source")
    if lib is None:
        try:
            lib = _obtain_lib(sha, c_source, disk, key, stats)
        except NativeBuildError:
            with _MEMO_LOCK:
                _LIB_MEMO[sha] = False
            raise
        with _MEMO_LOCK:
            lib = _LIB_MEMO.setdefault(sha, lib)

    namespace: Dict[str, Any] = {}
    code = compile(glue_source, f"<native:{func.name}>", "exec")
    exec(code, namespace)
    helpers = {
        "np": np,
        "ragged_arange": ragged_arange,
        "coords_to_positions": coords_to_positions,
        "marshal": _marshal,
        "native_invoke": _native_invoke,
    }
    axes = {axis.name: axis for axis in func.axes}
    return namespace["make_kernel"](axes, aux_arrays(func), helpers, lib)
