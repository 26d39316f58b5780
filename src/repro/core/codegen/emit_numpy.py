"""Stage-IV source backend: emit a compiled NumPy kernel for a stage-III program.

A stage-III loop nest can be executed with whole-array NumPy operations:
expand its loops into lane arrays, evaluate every expression over the lanes
and scatter the stores.  The *plan* — which lanes exist, which flat indices
every load gathers from, which lanes a structural zero drops — depends only
on the program structure, and the structure is exactly what the kernel cache
fingerprints.  This module walks the lowered
program **once** and fixes that plan into Python source text:

* :func:`emit_numpy_source` returns a standalone module defining
  ``make_kernel(axes, aux, helpers)``.  Its body is the *plan*: batch/loop
  prefixes unrolled into lane index arithmetic (``np.repeat`` / ``np.tile`` /
  ``ragged_arange``), gather indices, structural-zero masks — computed once
  from the structural (``indptr`` / ``indices``) data.
* ``make_kernel`` returns a ``run(arrays)`` closure whose body is the flat
  gather / compute / ``ufunc.at`` scatter sequence — the only part that
  depends on value data, so the only part that runs per call.

Expressions are split between the two zones by what they read: loads from
auxiliary (structural) buffers are **plan** work, loads from value buffers
are **run** work.  Lanes are materialised in serial loop order, reductions
scatter through ``ufunc.at`` (unbuffered, in lane order) and structural zeros
are masks instead of exceptions (an invalid index makes a load evaluate to 0
and a store drop its lane), so emitted results are bit-identical to the
scalar interpreter.

Programs outside the emitter's fragment (value-dependent loop bounds or
branch conditions, unknown intrinsics, anything the hazard analysis of
:mod:`~repro.core.codegen.hazards` rejects) raise
:class:`UnsupportedForEmission`; callers fall back to the interpreter, so
emission is never a correctness risk.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Set

import numpy as np

from ..buffers import _np_dtype
from ..expr import (
    BINARY_SEARCH,
    ROW_UPPER_BOUND,
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
    FloorDiv,
    FloorMod,
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
from ..program import STAGE_LOOP, PrimFunc
from ..stmt import (
    AssertStmt,
    Block,
    BufferStore,
    Evaluate,
    ForLoop,
    IfThenElse,
    LetStmt,
    SeqStmt,
    Stmt,
)
from .hazards import analyze_hazards, coords_to_positions
from .native import UnsupportedForEmission, aux_arrays

#: Bumped whenever the emitted-source contract changes; participates in the
#: structural fingerprint so stale on-disk source can never be executed.
EMITTER_VERSION = 4

_PLAN = "plan"
_RUN = "run"

_INFIX_OPS = {
    Add: "+",
    Sub: "-",
    Mul: "*",
    FloorDiv: "//",
    FloorMod: "%",
    LT: "<",
    LE: "<=",
    GT: ">",
    GE: ">=",
    EQ: "==",
    NE: "!=",
}

_CALL_OPS = {
    Min: "np.minimum",
    Max: "np.maximum",
    And: "np.logical_and",
    Or: "np.logical_or",
}

_UNARY_CALLS = {"exp", "tanh", "sqrt", "log", "abs"}


class _Val:
    """One emitted expression: a code fragment plus its static classification.

    ``zone`` says when the fragment's inputs are available (``plan``: only
    structural data; ``run``: value arrays).  ``lanes`` says whether the
    fragment evaluates to a lane array or a scalar — known statically.
    ``invalid`` names the structural-zero mask accompanying the value, if any.
    """

    __slots__ = ("code", "zone", "lanes", "invalid")

    def __init__(self, code: str, zone: str, lanes: bool, invalid: Optional["_Val"] = None):
        self.code = code
        self.zone = zone
        self.lanes = lanes
        self.invalid = invalid


def _max_zone(*zones: str) -> str:
    return _RUN if _RUN in zones else _PLAN


class _Emitter:
    def __init__(self, func: PrimFunc):
        if func.stage != STAGE_LOOP:
            raise ValueError(f"emit_numpy expects a stage-III program, got {func.stage}")
        # Proves each nest free of read-after-write hazards and classifies
        # every store as a plain store or a reduction self-update.
        self._store_forms = analyze_hazards(func)
        self.func = func
        self.aux_names = {buf.name: buf for buf in func.aux_buffers}
        self.flat_sizes = {fb.name: fb.size for fb in func.flat_buffers}
        self.flat_dtypes = {fb.name: np.dtype(_np_dtype(fb.dtype)).name for fb in func.flat_buffers}
        self.axes_by_name = {axis.name: axis for axis in func.axes}
        self.plan: List[str] = []
        self.run: List[str] = []
        self._counter = 0
        self._aux_used: List[str] = []
        self._val_used: List[str] = []
        self._axes_used: Set[str] = set()

    # -- infrastructure --------------------------------------------------------
    def _fresh(self, base: str) -> str:
        self._counter += 1
        return f"_{base}{self._counter}"

    def _line(self, zone: str, text: str) -> None:
        (self.plan if zone == _PLAN else self.run).append(text)

    def _bind_buffer(self, name: str) -> str:
        """Register a buffer local binding and return the local name."""
        if not name.isidentifier() or name.startswith("_"):
            raise UnsupportedForEmission(f"buffer name {name!r} is not emittable")
        if name in self.aux_names:
            if name not in self._aux_used:
                self._aux_used.append(name)
        elif name not in self._val_used:
            self._val_used.append(name)
        return name

    def _as_lanes(self, val: _Val, n_code: str, store_dtype: Optional[str] = None) -> str:
        if val.lanes:
            return val.code
        if store_dtype is None:
            return f"np.full({n_code}, {val.code})"
        # A scalar stored to a buffer takes the type the interpreter's
        # ``buffer[i] <op> scalar`` computes in (NEP-50: a Python literal is
        # weak, a NumPy scalar promotes); a bare np.full would make a float
        # literal float64 and round a float32 rescale twice.
        dtype = f"np.result_type({store_dtype!r}, {val.code})"
        return f"np.full({n_code}, {val.code}, dtype={dtype})"

    def _merge_invalid(self, *invalids: Optional[_Val]) -> Optional[_Val]:
        present = [inv for inv in invalids if inv is not None]
        if not present:
            return None
        if len(present) == 1:
            return present[0]
        zone = _max_zone(*(inv.zone for inv in present))
        name = self._fresh("inv")
        self._line(zone, f"{name} = " + " | ".join(inv.code for inv in present))
        return _Val(name, zone, True)

    # -- statement walk --------------------------------------------------------
    def _walk(self, stmt: Stmt, env: Dict[Var, _Val], n_code: str, mode: str) -> None:
        from ...runtime.executor import _contains_init

        if isinstance(stmt, SeqStmt):
            for child in stmt.stmts:
                self._walk(child, env, n_code, mode)
            return
        if isinstance(stmt, ForLoop):
            if mode in ("init", "init_only") and not _contains_init(stmt.body):
                return
            new_env, new_n = self._expand_loop(stmt, env, n_code)
            self._walk(stmt.body, new_env, new_n, mode)
            return
        if isinstance(stmt, Block):
            if mode in ("init", "init_only"):
                if stmt.init is not None:
                    self._line(_RUN, f"# init of block {stmt.name!r}")
                    self._walk(stmt.init, env, n_code, "compute")
                self._walk(stmt.body, env, n_code, "init_only")
            else:
                self._walk(stmt.body, env, n_code, mode)
            return
        if mode == "init":
            # Mirror the interpreter: the init pass does not descend into
            # leaf statements above the first block.
            return
        if mode == "init_only":
            if isinstance(stmt, IfThenElse):
                # The init pass visits both branches unmasked (inits are
                # idempotent constant stores), exactly like the interpreter.
                self._walk(stmt.then_case, env, n_code, mode)
                if stmt.else_case is not None:
                    self._walk(stmt.else_case, env, n_code, mode)
            return
        if isinstance(stmt, BufferStore):
            self._emit_store(stmt, env, n_code)
            return
        if isinstance(stmt, IfThenElse):
            self._emit_if(stmt, env, n_code, mode)
            return
        if isinstance(stmt, LetStmt):
            value = self._eval(stmt.value, env, n_code)
            if value.invalid is not None:
                self._line(
                    value.invalid.zone,
                    f"if {value.invalid.code}.any():\n"
                    f"    raise ValueError('structural zero inside a let binding')",
                )
            name = self._fresh(stmt.var.name)
            self._line(value.zone, f"{name} = {self._as_lanes(value, n_code)}")
            env[stmt.var] = _Val(name, value.zone, True)
            self._walk(stmt.body, env, n_code, mode)
            env.pop(stmt.var, None)
            return
        if isinstance(stmt, AssertStmt):
            self._walk(stmt.body, env, n_code, mode)
            return
        if isinstance(stmt, Evaluate):
            return
        raise UnsupportedForEmission(f"cannot emit statement of type {type(stmt).__name__}")

    def _expand_loop(
        self, loop: ForLoop, env: Dict[Var, _Val], n_code: str
    ) -> tuple[Dict[Var, _Val], str]:
        start = self._eval(loop.start, env, n_code)
        extent = self._eval(loop.extent, env, n_code)
        if _max_zone(start.zone, extent.zone) == _RUN:
            raise UnsupportedForEmission("loop bounds depend on value data")
        if start.invalid is not None or extent.invalid is not None:
            raise UnsupportedForEmission("structural zero inside loop bounds")

        new_env: Dict[Var, _Val] = {}
        loop_name = self._fresh(loop.loop_var.name)
        if not start.lanes and not extent.lanes:
            count = self._fresh("cnt")
            total = self._fresh("n")
            self._line(_PLAN, f"{count} = max(int({extent.code}), 0)")
            self._line(_PLAN, f"{total} = {n_code} * {count}")
            self._line(
                _PLAN,
                f"if {total} > MAX_LANES:\n"
                f"    raise ValueError('loop nest expands past MAX_LANES')",
            )
            for var, val in env.items():
                name = self._fresh(var.name)
                self._line(val.zone, f"{name} = np.repeat({val.code}, {count})")
                new_env[var] = _Val(name, val.zone, True)
            self._line(
                _PLAN,
                f"{loop_name} = np.tile(np.arange(int({start.code}), "
                f"int({start.code}) + {count}, dtype=np.int64), {n_code})",
            )
            new_env[loop.loop_var] = _Val(loop_name, _PLAN, True)
            return new_env, total

        starts = self._fresh("starts")
        counts = self._fresh("counts")
        total = self._fresh("n")
        parent = self._fresh("parent")
        local = self._fresh("local")
        self._line(
            _PLAN, f"{starts} = {self._as_lanes(start, n_code)}.astype(np.int64, copy=False)"
        )
        self._line(
            _PLAN,
            f"{counts} = np.maximum({self._as_lanes(extent, n_code)}"
            f".astype(np.int64, copy=False), 0)",
        )
        self._line(_PLAN, f"{total} = int({counts}.sum())")
        self._line(
            _PLAN,
            f"if {total} > MAX_LANES:\n"
            f"    raise ValueError('loop nest expands past MAX_LANES')",
        )
        self._line(_PLAN, f"{parent} = np.repeat(np.arange({n_code}, dtype=np.int64), {counts})")
        self._line(_PLAN, f"{local} = ragged_arange({counts})")
        for var, val in env.items():
            name = self._fresh(var.name)
            self._line(val.zone, f"{name} = {val.code}[{parent}]")
            new_env[var] = _Val(name, val.zone, True)
        self._line(_PLAN, f"{loop_name} = {starts}[{parent}] + {local}")
        new_env[loop.loop_var] = _Val(loop_name, _PLAN, True)
        return new_env, total

    def _emit_if(self, stmt: IfThenElse, env: Dict[Var, _Val], n_code: str, mode: str) -> None:
        cond = self._eval(stmt.condition, env, n_code)
        if cond.zone == _RUN:
            raise UnsupportedForEmission("branch condition depends on value data")
        mask = self._fresh("m")
        if cond.lanes:
            self._line(_PLAN, f"{mask} = np.asarray({cond.code}, dtype=bool)")
        else:
            self._line(_PLAN, f"{mask} = np.full({n_code}, bool({cond.code}))")
        if cond.invalid is not None:
            self._line(_PLAN, f"{mask} = {mask} & ~{cond.invalid.code}")
        then_n = self._fresh("n")
        self._line(_PLAN, f"{then_n} = int({mask}.sum())")
        self._walk(stmt.then_case, self._mask_env(env, mask), then_n, mode)
        if stmt.else_case is not None:
            inverse = self._fresh("m")
            else_n = self._fresh("n")
            self._line(_PLAN, f"{inverse} = ~{mask}")
            self._line(_PLAN, f"{else_n} = {n_code} - {then_n}")
            self._walk(stmt.else_case, self._mask_env(env, inverse), else_n, mode)

    def _mask_env(self, env: Dict[Var, _Val], mask: str) -> Dict[Var, _Val]:
        masked: Dict[Var, _Val] = {}
        for var, val in env.items():
            name = self._fresh(var.name)
            self._line(val.zone, f"{name} = {val.code}[{mask}]")
            masked[var] = _Val(name, val.zone, True)
        return masked

    def _emit_store(self, store: BufferStore, env: Dict[Var, _Val], n_code: str) -> None:
        if len(store.indices) != 1:
            raise UnsupportedForEmission("stage-III stores must use a single flat index")
        name = store.buffer.name
        if name in self.aux_names:
            raise UnsupportedForEmission(f"store to auxiliary buffer {name!r}")
        size = self.flat_sizes.get(name)
        if size is None:
            raise UnsupportedForEmission(f"store to unknown flat buffer {name!r}")
        array = self._bind_buffer(name)
        residual = self._store_forms.get(id(store))
        self._line(_RUN, f"# {store!r}")

        index = self._eval(store.indices[0], env, n_code)
        value = self._eval(residual[1] if residual is not None else store.value, env, n_code)
        for inv in (index.invalid, value.invalid):
            if inv is not None and inv.zone == _RUN:
                raise UnsupportedForEmission("value-dependent structural-zero mask")

        # A name may only be assigned in one zone (a plan temp reassigned
        # inside run() would shadow the closure variable), so the keep-filter
        # binds fresh names instead of updating in place.
        idx = self._fresh("ix")
        drop = self._fresh("drop")
        bad = self._fresh("bad")
        keep = self._fresh("keep")
        self._line(
            index.zone,
            f"{idx} = {self._as_lanes(index, n_code)}.astype(np.int64, copy=False)",
        )
        self._line(index.zone, f"{drop} = ({idx} < 0) | ({idx} >= {size})")
        self._line(index.zone, f"{bad} = {drop} if {drop}.any() else None")
        for inv in (index.invalid, value.invalid):
            if inv is not None:
                self._line(
                    index.zone, f"{bad} = {inv.code} if {bad} is None else ({bad} | {inv.code})"
                )
        kept_idx = self._fresh("ix")
        self._line(
            index.zone,
            f"if {bad} is None:\n"
            f"    {keep} = None\n"
            f"    {kept_idx} = {idx}\n"
            f"else:\n"
            f"    {keep} = ~{bad}\n"
            f"    {kept_idx} = {idx}[{keep}]",
        )
        vals = self._fresh("v")
        kept_vals = self._fresh("v")
        vals_zone = _max_zone(value.zone, index.zone)
        self._line(value.zone, f"{vals} = {self._as_lanes(value, n_code, self.flat_dtypes[name])}")
        self._line(
            vals_zone, f"{kept_vals} = {vals} if {keep} is None else {vals}[{keep}]"
        )
        if residual is not None:
            ufunc = "np.add.at" if residual[0] == "add" else "np.multiply.at"
            self._line(_RUN, f"{ufunc}({array}, {kept_idx}, {kept_vals})")
        else:
            target = kept_idx
            if index.zone == _PLAN:
                # An identity scatter (dense element-wise nests) collapses to
                # a basic slice at plan time: the per-call store becomes a
                # contiguous block write instead of a fancy-index scatter.
                # Identity indices have no duplicates, so plain assignment
                # through the slice is element-for-element identical.
                target = self._fresh("sl")
                self._line(
                    _PLAN,
                    f"{target} = slice(0, {kept_idx}.size) if {keep} is None "
                    f"and np.array_equal({kept_idx}, np.arange({kept_idx}.size)) "
                    f"else {kept_idx}",
                )
            self._line(_RUN, f"{array}[{target}] = {kept_vals}")

    # -- expression emission ---------------------------------------------------
    def _eval(self, expr: Expr, env: Dict[Var, _Val], n_code: str) -> _Val:
        if isinstance(expr, IntImm):
            return _Val(str(int(expr.value)), _PLAN, False)
        if isinstance(expr, FloatImm):
            return _Val(repr(float(expr.value)), _PLAN, False)
        if isinstance(expr, StringImm):
            return _Val(repr(expr.value), _PLAN, False)
        if isinstance(expr, Var):
            val = env.get(expr)
            if val is None:
                raise UnsupportedForEmission(f"unbound variable {expr.name!r}")
            return val
        if isinstance(expr, BufferLoad):
            return self._eval_load(expr, env, n_code)
        if isinstance(expr, BinaryOp):
            a = self._eval(expr.a, env, n_code)
            b = self._eval(expr.b, env, n_code)
            zone = _max_zone(a.zone, b.zone)
            lanes = a.lanes or b.lanes
            invalid = self._merge_invalid(a.invalid, b.invalid)
            infix = _INFIX_OPS.get(type(expr))
            if infix is not None:
                return _Val(f"({a.code} {infix} {b.code})", zone, lanes, invalid)
            call = _CALL_OPS.get(type(expr))
            if call is not None:
                return _Val(f"{call}({a.code}, {b.code})", zone, lanes, invalid)
            if isinstance(expr, Div):
                # Whole-array division warns on x/0 and 0/0 lanes; the
                # results (inf / nan) are the contract, the warnings are not.
                name = self._fresh("q")
                self._line(
                    zone,
                    "with np.errstate(divide='ignore', invalid='ignore'):\n"
                    f"    {name} = {a.code} / {b.code}",
                )
                return _Val(name, zone, lanes, invalid)
            raise UnsupportedForEmission(f"unsupported binary op {type(expr).__name__}")
        if isinstance(expr, Not):
            a = self._eval(expr.a, env, n_code)
            return _Val(f"np.logical_not({a.code})", a.zone, a.lanes, a.invalid)
        if isinstance(expr, Select):
            return self._eval_select(expr, env, n_code)
        if isinstance(expr, Cast):
            value = self._eval(expr.value, env, n_code)
            if expr.dtype.startswith("int"):
                code = (
                    f"np.asarray({value.code}).astype(np.int64)"
                    if value.lanes
                    else f"int({value.code})"
                )
            elif expr.dtype.startswith("float"):
                code = (
                    f"np.asarray({value.code}).astype(np.float64)"
                    if value.lanes
                    else f"float({value.code})"
                )
            else:
                code = value.code
            return _Val(code, value.zone, value.lanes, value.invalid)
        if isinstance(expr, Call):
            return self._eval_call(expr, env, n_code)
        raise UnsupportedForEmission(f"cannot emit expression of type {type(expr).__name__}")

    def _eval_select(self, expr: Select, env: Dict[Var, _Val], n_code: str) -> _Val:
        cond = self._eval(expr.condition, env, n_code)
        true = self._eval(expr.true_value, env, n_code)
        false = self._eval(expr.false_value, env, n_code)
        zone = _max_zone(cond.zone, true.zone, false.zone)
        lanes = cond.lanes or true.lanes or false.lanes
        cond_name = self._fresh("c")
        self._line(cond.zone, f"{cond_name} = {cond.code}")
        code = f"np.where({cond_name}, {true.code}, {false.code})"
        branch_invalid: Optional[_Val] = None
        if true.invalid is not None or false.invalid is not None:
            # Only the invalidity of the *chosen* branch counts, mirroring the
            # interpreter which never evaluates the unchosen branch.
            ti = true.invalid.code if true.invalid is not None else "False"
            fi = false.invalid.code if false.invalid is not None else "False"
            inv_zone = _max_zone(
                cond.zone,
                *(inv.zone for inv in (true.invalid, false.invalid) if inv is not None),
            )
            name = self._fresh("inv")
            self._line(
                inv_zone,
                f"{name} = np.where(np.asarray({cond_name}, dtype=bool), {ti}, {fi})",
            )
            branch_invalid = _Val(name, inv_zone, True)
        return _Val(code, zone, lanes, self._merge_invalid(cond.invalid, branch_invalid))

    def _eval_load(self, expr: BufferLoad, env: Dict[Var, _Val], n_code: str) -> _Val:
        if len(expr.indices) != 1:
            raise UnsupportedForEmission("stage-III loads must use a single flat index")
        name = expr.buffer.name
        size = self.flat_sizes.get(name)
        if size is None:
            raise UnsupportedForEmission(f"load from unknown flat buffer {name!r}")
        array = self._bind_buffer(name)
        buffer_zone = _PLAN if name in self.aux_names else _RUN
        index = self._eval(expr.indices[0], env, n_code)
        zone = _max_zone(index.zone, buffer_zone)

        if not index.lanes:
            pos = self._fresh("i")
            self._line(index.zone, f"{pos} = int({index.code})")
            guard = f"0 <= {pos} < {size}"
            if index.invalid is not None:
                guard = f"not bool({index.invalid.code}) and {guard}"
            value = self._fresh("v")
            self._line(
                zone, f"{value} = {array}[{pos}] if ({guard}) else {array}.dtype.type(0)"
            )
            return _Val(value, zone, False)

        idx = self._fresh("ix")
        bad = self._fresh("bad")
        anybad = self._fresh("anybad")
        safe = self._fresh("safe")
        self._line(index.zone, f"{idx} = {index.code}.astype(np.int64, copy=False)")
        bad_expr = f"({idx} < 0) | ({idx} >= {size})"
        if index.invalid is not None:
            bad_expr = f"({bad_expr}) | {index.invalid.code}"
        self._line(index.zone, f"{bad} = {bad_expr}")
        self._line(index.zone, f"{anybad} = bool({bad}.any())")
        self._line(index.zone, f"{safe} = np.where({bad}, 0, {idx}) if {anybad} else {idx}")
        gather = safe
        if index.zone == _PLAN:
            # An identity gather (dense element-wise nests) collapses to a
            # basic slice at plan time: the per-call load becomes a zero-copy
            # view instead of a fancy-index copy.  Only the unguarded path is
            # reached when the slice applies (``anybad`` is part of the
            # condition), and every consumer either reads the view or copies
            # out of it before any store touches the source buffer (the
            # hazard analysis proves nests hazard-free).
            gather = self._fresh("sl")
            self._line(
                _PLAN,
                f"{gather} = slice(0, {safe}.size) if not {anybad} "
                f"and np.array_equal({safe}, np.arange({safe}.size)) else {safe}",
            )
        value = self._fresh("v")
        self._line(
            zone,
            f"if {anybad}:\n"
            f"    {value} = np.where({bad}, {array}.dtype.type(0), {array}[{gather}])\n"
            f"else:\n"
            f"    {value} = {array}[{gather}]",
        )
        # A load consumes the structural zero (it evaluates to 0), so the
        # invalid mask does not propagate past it.
        return _Val(value, zone, True)

    def _eval_call(self, call: Call, env: Dict[Var, _Val], n_code: str) -> _Val:
        if call.func == BINARY_SEARCH:
            if not isinstance(call.args[0], StringImm):
                raise UnsupportedForEmission("dynamic axis name in sparse_coord_to_pos")
            axis_name = call.args[0].value
            if axis_name not in self.axes_by_name:
                raise UnsupportedForEmission(f"unknown axis {axis_name!r}")
            parent = self._eval(call.args[1], env, n_code)
            coord = self._eval(call.args[2], env, n_code)
            if _max_zone(parent.zone, coord.zone) == _RUN:
                raise UnsupportedForEmission("coordinate search depends on value data")
            self._axes_used.add(axis_name)
            par = self._fresh("par")
            crd = self._fresh("crd")
            pos = self._fresh("pos")
            miss = self._fresh("inv")
            self._line(
                _PLAN, f"{par} = {self._as_lanes(parent, n_code)}.astype(np.int64, copy=False)"
            )
            self._line(
                _PLAN, f"{crd} = {self._as_lanes(coord, n_code)}.astype(np.int64, copy=False)"
            )
            self._line(
                _PLAN, f"{pos} = coords_to_positions(axes[{axis_name!r}], {par}, {crd})"
            )
            self._line(_PLAN, f"{miss} = {pos} < 0")
            invalid = self._merge_invalid(parent.invalid, coord.invalid, _Val(miss, _PLAN, True))
            return _Val(pos, _PLAN, True, invalid)
        if call.func == ROW_UPPER_BOUND:
            if not isinstance(call.args[0], StringImm):
                raise UnsupportedForEmission("dynamic axis name in sparse_row_of_position")
            axis_name = call.args[0].value
            axis = self.axes_by_name.get(axis_name)
            if axis is None or getattr(axis, "indptr", None) is None:
                raise UnsupportedForEmission(f"axis {axis_name!r} has no indptr for row search")
            position = self._eval(call.args[1], env, n_code)
            if position.zone == _RUN:
                raise UnsupportedForEmission("row search depends on value data")
            self._axes_used.add(axis_name)
            rows = self._fresh("row")
            self._line(
                _PLAN,
                f"{rows} = (np.searchsorted(axes[{axis_name!r}].indptr, "
                f"{self._as_lanes(position, n_code)}, side='right') - 1)"
                f".astype(np.int64, copy=False)",
            )
            return _Val(rows, _PLAN, True, position.invalid)
        if call.func in _UNARY_CALLS:
            value = self._eval(call.args[0], env, n_code)
            name = self._fresh("u")
            self._line(
                value.zone,
                "with np.errstate(divide='ignore', invalid='ignore'):\n"
                f"    {name} = np.{call.func}({value.code})",
            )
            return _Val(name, value.zone, value.lanes, value.invalid)
        raise UnsupportedForEmission(f"unknown intrinsic {call.func!r}")

    # -- assembly --------------------------------------------------------------
    def emit(self) -> str:
        body = self.func.body
        self.run.append("# ---- pass 1: reduction initialisation ----")
        self._walk(body, {}, "1", "init")
        self.run.append("# ---- pass 2: compute ----")
        self._walk(body, {}, "1", "compute")
        return self._render()

    def _render(self) -> str:
        plan_blocks, aliases = _cse_plan(self.plan)
        plan_text = "\n".join(plan_blocks)
        run_blocks = _free_dead_temps(
            [_apply_aliases(block, aliases) for block in self.run]
        )
        run_text = "\n".join(run_blocks)
        helper_lines = ["np = helpers['np']"]
        if "ragged_arange(" in plan_text:
            helper_lines.append("ragged_arange = helpers['ragged_arange']")
        if "coords_to_positions(" in plan_text:
            helper_lines.append("coords_to_positions = helpers['coords_to_positions']")
        for name in self._aux_used:
            helper_lines.append(f"{name} = aux[{name!r}]")

        lines: List[str] = [
            f'"""Emitted NumPy kernel for {self.func.name!r} '
            "(stage-IV source backend).",
            "",
            f"Generated by repro.core.codegen.emit_numpy v{EMITTER_VERSION}; do not edit.",
            "The make_kernel body is the plan: lane expansion and gather/scatter",
            "indices fixed once from the structural data.  run() is the per-call",
            "gather / compute / scatter body over the value arrays.",
            '"""',
            "",
            f"MAX_LANES = {MAX_LANES}",
            "",
            "",
            "def make_kernel(axes, aux, helpers):",
        ]
        for text in helper_lines:
            lines.extend(_indent(text, 1))
        lines.append("    # ---- plan: computed once from structural data ----")
        for text in plan_blocks:
            lines.extend(_indent(text, 1))
        lines.append("")
        lines.append("    def run(arrays):")
        for name in self._val_used:
            lines.append(f"        {name} = arrays[{name!r}]")
        for text in run_blocks:
            lines.extend(_indent(text, 2))
        lines.append("        return arrays")
        lines.append("")
        lines.append("    return run")
        return "\n".join(lines) + "\n"


_TEMP_NAME = re.compile(r"\b_[a-zA-Z]\w*\b")
_TEMP_ASSIGN = re.compile(r"^\s*(_[a-zA-Z]\w*) = ", re.MULTILINE)


def _apply_aliases(text: str, aliases: Dict[str, str]) -> str:
    if not aliases:
        return text
    return _TEMP_NAME.sub(lambda m: aliases.get(m.group(0), m.group(0)), text)


def _cse_plan(blocks: List[str]) -> tuple[List[str], Dict[str, str]]:
    """Value-number the plan: drop repeated computations, alias their names.

    Plan code is straight-line and reads only structural (auxiliary) data,
    which nothing ever stores to, so two plan blocks whose text is identical
    after alias substitution compute identical arrays — the second is dropped
    and its names alias the first.  This collapses the init-pass/compute-pass
    duplication inside every kernel and, in merged (fused) programs, shares
    one set of lane/gather index arrays between structurally identical nests
    (e.g. the per-relation GEMMs of an RGCN layer) exactly like the kernel
    cache shares them between identical standalone kernels.
    """
    # Names assigned by more than one block (e.g. the structural-zero mask
    # accumulation) are mutable: they may neither be aliased nor take part in
    # a dedup key, since text identity no longer implies value identity.
    counts: Dict[str, int] = {}
    for block in blocks:
        for name in dict.fromkeys(_TEMP_ASSIGN.findall(block)):
            counts[name] = counts.get(name, 0) + 1
    mutable = {name for name, c in counts.items() if c > 1}

    aliases: Dict[str, str] = {}
    seen: Dict[str, List[str]] = {}
    out: List[str] = []
    for block in blocks:
        text = _apply_aliases(block, aliases)
        targets = list(dict.fromkeys(_TEMP_ASSIGN.findall(text)))
        if not targets:
            out.append(text)
            continue
        names_in_block = set(_TEMP_NAME.findall(text))
        if names_in_block & mutable:
            out.append(text)
            continue
        placeholder = {name: f"\0{i}\0" for i, name in enumerate(targets)}
        key = _TEMP_NAME.sub(lambda m: placeholder.get(m.group(0), m.group(0)), text)
        prior = seen.get(key)
        if prior is None:
            seen[key] = targets
            out.append(text)
        else:
            for name, canonical in zip(targets, prior):
                if name != canonical:
                    aliases[name] = canonical
    return out, aliases


def _free_dead_temps(blocks: List[str]) -> List[str]:
    """Insert ``del`` statements after the last use of each run-zone temporary.

    A merged (fused) program keeps every nest's gather/compute temporaries
    alive as frame locals until ``run()`` returns, which defeats the
    allocator's buffer reuse between nests — node-at-a-time execution gets
    that reuse for free when each kernel's frame exits.  Freeing each
    temporary right after its last use restores the reuse, so a fused
    program's working set matches the largest single nest instead of the sum
    of all nests.  Only names *assigned inside the run body* are freed;
    plan-zone names are closure variables and cannot (and must not) be
    deleted.
    """
    assigned: Dict[str, int] = {}
    last_use: Dict[str, int] = {}
    for i, block in enumerate(blocks):
        for match in _TEMP_ASSIGN.finditer(block):
            assigned.setdefault(match.group(1), i)
        for match in _TEMP_NAME.finditer(block):
            last_use[match.group(0)] = i
    out: List[str] = []
    for i, block in enumerate(blocks):
        out.append(block)
        if i == len(blocks) - 1:
            continue
        dead = sorted(
            name for name, last in last_use.items() if last == i and name in assigned
        )
        if dead:
            out.append("del " + ", ".join(dead))
    return out


def _indent(text: str, depth: int) -> List[str]:
    pad = "    " * depth
    return [pad + line if line else line for line in text.split("\n")]


def emit_numpy_source(func: PrimFunc) -> str:
    """Emit the stage-IV NumPy module source for a stage-III program.

    Raises :class:`UnsupportedForEmission` when the program falls outside the
    emitter's fragment; callers fall back to the interpreter.
    """
    return _Emitter(func).emit()


def compile_emitted(source: str, func: PrimFunc) -> Any:
    """Compile emitted source and execute its plan; return the run closure.

    Any exception (lane overflow in the plan, a stale hand-edited source)
    propagates to the caller, which treats the emitted tier as unavailable
    for this kernel and falls back.
    """
    namespace: Dict[str, Any] = {}
    code = compile(source, f"<emitted:{func.name}>", "exec")
    exec(code, namespace)
    make_kernel = namespace["make_kernel"]
    helpers = {
        "np": np,
        "ragged_arange": ragged_arange,
        "coords_to_positions": coords_to_positions,
    }
    axes = {axis.name: axis for axis in func.axes}
    return make_kernel(axes, aux_arrays(func), helpers)
