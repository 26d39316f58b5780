"""A NumPy interpreter for stage-III (flat, loop-level) SparseTIR programs.

The interpreter provides the numerical ground truth used by the test suite:
kernels lowered through the full pipeline are executed element by element and
compared against dense NumPy references.  It deliberately favours clarity
over speed; the evaluation-scale numbers come from the performance model in
:mod:`repro.sim`, not from wall-clock interpretation.

Semantics notes
---------------
* **Structural zeros.**  A ``sparse_coord_to_pos`` search that does not find
  the requested coordinate denotes a structural zero.  A load of a structural
  zero evaluates to 0 and a store to a structural zero is dropped, matching
  the behaviour of compressed formats (padded ELL slots use coordinate -1).
* **Reduction initialisation.**  Blocks with an ``init`` statement are
  handled with a two-pass strategy: a first sweep over the loop nest executes
  only the init statements, a second sweep executes only the bodies.  This is
  equivalent to TensorIR's per-instance init for the programs generated by
  this compiler (inits are idempotent element-wise constant stores) and stays
  correct under any loop transformation applied by stage-II schedules.
"""

from __future__ import annotations

from typing import Any, Collection, Dict, Mapping, Optional

import numpy as np

from ..core.axes import Axis
from ..core.buffers import FlatBuffer, SparseBuffer, _np_dtype
from ..core.expr import (
    BINARY_SEARCH,
    ROW_UPPER_BOUND,
    BinaryOp,
    BufferLoad,
    Call,
    Cast,
    Expr,
    FloatImm,
    IntImm,
    Not,
    Select,
    StringImm,
    Var,
)
from ..core.program import STAGE_LOOP, PrimFunc
from ..core.stmt import (
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


class _StructuralZero(Exception):
    """Signals that an access referred to a structural zero."""


def prepare_arrays(
    func: PrimFunc, bindings: Mapping[str, np.ndarray], skip: Collection[str] = ()
) -> Dict[str, np.ndarray]:
    """Materialise the flat value array for every buffer of a stage-III program.

    ``bindings`` overrides or provides flat value arrays by buffer name;
    buffers not bound explicitly use the data already attached to their
    :class:`SparseBuffer` (auxiliary indptr/indices buffers usually carry
    their data from the axes), or are zero-initialised.  Shared by the scalar
    interpreter and the compiled tiers so every engine observes identical
    inputs.

    Buffers named in *skip* are left out: the native and emitted tiers bind
    the auxiliary (``indptr``/``indices``) buffers at build time, so copying
    them per call would be wasted work.
    """
    buffers_by_name: Dict[str, SparseBuffer] = {
        buf.name: buf for buf in list(func.buffers) + list(func.aux_buffers)
    }
    arrays: Dict[str, np.ndarray] = {}
    for flat in func.flat_buffers:
        name = flat.name
        if name in skip:
            continue
        if name in bindings:
            array = np.asarray(bindings[name], dtype=_np_dtype(flat.dtype)).reshape(-1).copy()
            if array.size != flat.size:
                raise ValueError(
                    f"binding for {name!r} has {array.size} elements, expected {flat.size}"
                )
        else:
            backing = buffers_by_name.get(name)
            if backing is not None and backing.data is not None:
                array = np.asarray(backing.data, dtype=_np_dtype(flat.dtype)).reshape(-1).copy()
            else:
                array = np.zeros(flat.size, dtype=_np_dtype(flat.dtype))
        arrays[name] = array
    for name, value in bindings.items():
        if name not in arrays and name not in skip:
            arrays[name] = np.asarray(value).reshape(-1).copy()
    return arrays


class Executor:
    """Interprets one stage-III PrimFunc over NumPy arrays."""

    def __init__(self, func: PrimFunc):
        if func.stage != STAGE_LOOP:
            raise ValueError(f"Executor expects a stage-III program, got {func.stage}")
        self.func = func
        self.axes_by_name: Dict[str, Axis] = {axis.name: axis for axis in func.axes}
        self.buffers_by_name: Dict[str, SparseBuffer] = {
            buf.name: buf for buf in list(func.buffers) + list(func.aux_buffers)
        }
        self.flat_by_name: Dict[str, FlatBuffer] = {fb.name: fb for fb in func.flat_buffers}

    # -- public API -----------------------------------------------------------
    def run(self, bindings: Optional[Mapping[str, np.ndarray]] = None) -> Dict[str, np.ndarray]:
        """Execute the program and return the array for every buffer.

        ``bindings`` overrides or provides flat value arrays by buffer name;
        buffers not bound explicitly use the data already attached to their
        :class:`SparseBuffer` (auxiliary indptr/indices buffers usually carry
        their data from the axes), or are zero-initialised.
        """
        arrays = prepare_arrays(self.func, bindings or {})
        env: Dict[Var, int] = {}
        # Pass 1: reduction initialisation.
        self._exec_stmt(self.func.body, env, arrays, mode="init")
        # Pass 2: main computation.
        self._exec_stmt(self.func.body, env, arrays, mode="compute")
        return arrays

    # -- statement execution -----------------------------------------------------
    def _exec_stmt(self, stmt: Stmt, env: Dict[Var, int], arrays: Dict[str, np.ndarray], mode: str) -> None:
        if isinstance(stmt, SeqStmt):
            for s in stmt.stmts:
                self._exec_stmt(s, env, arrays, mode)
            return
        if isinstance(stmt, ForLoop):
            start = int(self._eval(stmt.start, env, arrays))
            extent = int(self._eval(stmt.extent, env, arrays))
            for value in range(start, start + extent):
                env[stmt.loop_var] = value
                self._exec_stmt(stmt.body, env, arrays, mode)
            env.pop(stmt.loop_var, None)
            return
        if isinstance(stmt, Block):
            if mode == "init":
                if stmt.init is not None:
                    self._exec_stmt(stmt.init, env, arrays, mode="compute")
                # Do not descend into the body during the init pass except to
                # find nested blocks that may carry their own init.
                self._exec_stmt_init_only(stmt.body, env, arrays)
            else:
                self._exec_stmt(stmt.body, env, arrays, mode)
            return
        if mode == "init":
            return
        if isinstance(stmt, BufferStore):
            try:
                index = int(self._eval(stmt.indices[0], env, arrays))
                value = self._eval(stmt.value, env, arrays)
            except _StructuralZero:
                return
            array = arrays[stmt.buffer.name]
            if index < 0 or index >= array.size:
                return
            array[index] = value
            return
        if isinstance(stmt, IfThenElse):
            try:
                condition = self._eval(stmt.condition, env, arrays)
            except _StructuralZero:
                condition = False
            if condition:
                self._exec_stmt(stmt.then_case, env, arrays, mode)
            elif stmt.else_case is not None:
                self._exec_stmt(stmt.else_case, env, arrays, mode)
            return
        if isinstance(stmt, LetStmt):
            env_value = self._eval(stmt.value, env, arrays)
            env[stmt.var] = env_value
            self._exec_stmt(stmt.body, env, arrays, mode)
            env.pop(stmt.var, None)
            return
        if isinstance(stmt, AssertStmt):
            self._exec_stmt(stmt.body, env, arrays, mode)
            return
        if isinstance(stmt, Evaluate):
            return
        raise TypeError(f"cannot execute statement of type {type(stmt)}")

    def _exec_stmt_init_only(self, stmt: Stmt, env: Dict[Var, int], arrays: Dict[str, np.ndarray]) -> None:
        """During the init pass, walk loops/blocks but execute only block inits."""
        if isinstance(stmt, SeqStmt):
            for s in stmt.stmts:
                self._exec_stmt_init_only(s, env, arrays)
            return
        if isinstance(stmt, ForLoop):
            if not _contains_init(stmt.body):
                return
            start = int(self._eval(stmt.start, env, arrays))
            extent = int(self._eval(stmt.extent, env, arrays))
            for value in range(start, start + extent):
                env[stmt.loop_var] = value
                self._exec_stmt_init_only(stmt.body, env, arrays)
            env.pop(stmt.loop_var, None)
            return
        if isinstance(stmt, Block):
            if stmt.init is not None:
                self._exec_stmt(stmt.init, env, arrays, mode="compute")
            self._exec_stmt_init_only(stmt.body, env, arrays)
            return
        if isinstance(stmt, IfThenElse):
            self._exec_stmt_init_only(stmt.then_case, env, arrays)
            if stmt.else_case is not None:
                self._exec_stmt_init_only(stmt.else_case, env, arrays)
            return
        # Leaf statements carry no init.
        return

    # -- expression evaluation -----------------------------------------------------
    def _eval(self, expr: Expr, env: Dict[Var, int], arrays: Dict[str, np.ndarray]) -> Any:
        if isinstance(expr, IntImm):
            return expr.value
        if isinstance(expr, FloatImm):
            return expr.value
        if isinstance(expr, StringImm):
            return expr.value
        if isinstance(expr, Var):
            if expr not in env:
                raise KeyError(f"unbound variable {expr.name!r} during execution")
            return env[expr]
        if isinstance(expr, BufferLoad):
            array = arrays[expr.buffer.name]
            try:
                index = int(self._eval(expr.indices[0], env, arrays))
            except _StructuralZero:
                return array.dtype.type(0)
            if index < 0 or index >= array.size:
                return array.dtype.type(0)
            return array[index]
        if isinstance(expr, BinaryOp):
            a = self._eval(expr.a, env, arrays)
            b = self._eval(expr.b, env, arrays)
            return type(expr).py_op(a, b)
        if isinstance(expr, Not):
            return not self._eval(expr.a, env, arrays)
        if isinstance(expr, Select):
            if self._eval(expr.condition, env, arrays):
                return self._eval(expr.true_value, env, arrays)
            return self._eval(expr.false_value, env, arrays)
        if isinstance(expr, Cast):
            value = self._eval(expr.value, env, arrays)
            if expr.dtype.startswith("int"):
                return int(value)
            if expr.dtype.startswith("float"):
                return float(value)
            return value
        if isinstance(expr, Call):
            return self._eval_call(expr, env, arrays)
        raise TypeError(f"cannot evaluate expression of type {type(expr)}")

    def _eval_call(self, call: Call, env: Dict[Var, int], arrays: Dict[str, np.ndarray]) -> Any:
        if call.func == BINARY_SEARCH:
            axis_name = self._eval(call.args[0], env, arrays)
            parent_pos = int(self._eval(call.args[1], env, arrays))
            coordinate = int(self._eval(call.args[2], env, arrays))
            axis = self.axes_by_name[axis_name]
            position = axis.coordinate_to_position(parent_pos, coordinate)
            if position < 0:
                raise _StructuralZero()
            return position
        if call.func == ROW_UPPER_BOUND:
            axis_name = self._eval(call.args[0], env, arrays)
            position = int(self._eval(call.args[1], env, arrays))
            # The program's own ``<axis>_indptr`` buffer mirrors the axis array;
            # read it, so a run that rebinds the buffer searches what it bound.
            indptr = arrays.get(f"{axis_name}_indptr")
            if indptr is None:
                indptr = getattr(self.axes_by_name[axis_name], "indptr", None)
            if indptr is None:
                raise ValueError(f"axis {axis_name!r} has no indptr for row search")
            return int(np.searchsorted(indptr, position, side="right") - 1)
        if call.func == "abs":
            return abs(self._eval(call.args[0], env, arrays))
        if call.func in ("exp", "tanh", "sqrt", "log"):
            value = self._eval(call.args[0], env, arrays)
            return getattr(np, call.func)(value)
        raise ValueError(f"unknown intrinsic {call.func!r}")


def _contains_init(stmt: Stmt) -> bool:
    from ..core.stmt import post_order_stmts

    for node in post_order_stmts(stmt):
        if isinstance(node, Block) and node.init is not None:
            return True
    return False


def run_primfunc(
    func: PrimFunc,
    bindings: Optional[Mapping[str, np.ndarray]] = None,
    engine: str = "auto",
) -> Dict[str, np.ndarray]:
    """Lower *func* as needed and execute it, returning all buffer arrays.

    ``engine`` selects the execution backend exactly as in
    :meth:`repro.core.codegen.build.Kernel.run`: ``"auto"`` tries the native
    kernel, then the emitted kernel, then the interpreter; ``"native"`` /
    ``"emitted"`` require that tier; ``"interpret"`` forces the
    element-by-element interpreter.
    Lowering goes through the structural kernel cache, so repeated calls with
    the same program structure skip it.
    """
    from ..core.codegen.build import build

    kernel = build(func, horizontal_fusion=False)
    return kernel.run(bindings, engine=engine)
