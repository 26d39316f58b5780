"""Programming interface for building stage-I SparseTIR programs.

The paper's front end is a round-trippable Python dialect (``@T.prim_func``).
This reproduction provides an equivalent, explicit builder API::

    from repro.core.script import ProgramBuilder

    b = ProgramBuilder("spmm")
    I = b.dense_fixed("I", m)
    J = b.sparse_variable("J", parent=I, length=n, nnz=nnz)
    J_ = b.dense_fixed("J_", n)
    K = b.dense_fixed("K", feat_size)
    A = b.match_sparse_buffer("A", [I, J])
    B = b.match_sparse_buffer("B", [J_, K])
    C = b.match_sparse_buffer("C", [I, K])
    with b.sp_iter([I, J, K], "SRS", "spmm") as (i, j, k):
        b.init(C[i, k], 0.0)
        b.compute(C[i, k], C[i, k] + A[i, j] * B[j, k])
    func = b.finish()
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import axes as _axes
from .axes import Axis
from .buffers import SparseBuffer, match_sparse_buffer
from .expr import BufferLoad, Expr, Var, wrap
from .program import STAGE_COORDINATE, PrimFunc
from .sparse_iteration import AxisOrGroup, SparseIteration, flatten_axes, fuse
from .stmt import BufferStore, SeqStmt, Stmt


class ProgramBuilder:
    """Imperative builder assembling a stage-I :class:`PrimFunc`."""

    def __init__(self, name: str):
        self.name = name
        self._axes: List[Axis] = []
        self._buffers: List[SparseBuffer] = []
        self._tables: List[SparseBuffer] = []
        self._domains: Dict[str, Tuple[int, int]] = {}
        self._iterations: List[SparseIteration] = []
        self._current: Optional[_IterationFrame] = None
        self._finished = False

    # -- axes ------------------------------------------------------------------
    def dense_fixed(self, name: str, length: int, idtype: str = "int32") -> Axis:
        return self._register_axis(_axes.dense_fixed(name, length, idtype))

    def dense_variable(
        self,
        name: str,
        parent: Axis,
        length: int,
        nnz: int,
        indptr: Optional[np.ndarray] = None,
        idtype: str = "int32",
    ) -> Axis:
        return self._register_axis(
            _axes.dense_variable(name, parent, length, nnz, indptr, idtype)
        )

    def sparse_fixed(
        self,
        name: str,
        parent: Axis,
        length: int,
        nnz_cols: int,
        indices: Optional[np.ndarray] = None,
        idtype: str = "int32",
    ) -> Axis:
        return self._register_axis(
            _axes.sparse_fixed(name, parent, length, nnz_cols, indices, idtype)
        )

    def sparse_variable(
        self,
        name: str,
        parent: Axis,
        length: int,
        nnz: int,
        indptr: Optional[np.ndarray] = None,
        indices: Optional[np.ndarray] = None,
        idtype: str = "int32",
    ) -> Axis:
        return self._register_axis(
            _axes.sparse_variable(name, parent, length, nnz, indptr, indices, idtype)
        )

    def _register_axis(self, axis: Axis) -> Axis:
        if any(existing.name == axis.name for existing in self._axes):
            raise ValueError(f"duplicate axis name {axis.name!r}")
        self._axes.append(axis)
        return axis

    # -- buffers ------------------------------------------------------------------
    def match_sparse_buffer(
        self,
        name: str,
        axes: Sequence[Axis],
        dtype: str = "float32",
        data: Optional[np.ndarray] = None,
    ) -> SparseBuffer:
        return self._add_buffer(self._buffers, name, axes, dtype, data)

    # Alias mirroring common usage in examples.
    sparse_buffer = match_sparse_buffer

    def table(self, name: str, axes: Sequence[Axis], data: np.ndarray, bound: int) -> SparseBuffer:
        """An int32 index table the program reads as structure, like an
        axis's ``indices`` (hyb's ``rowmap``): an auxiliary buffer whose
        *data* is part of the structural fingerprint and whose every entry
        lies in ``[0, bound)`` (its buffer domain, Figure 7), which the native
        tier's binding checks once."""
        buffer = self._add_buffer(self._tables, name, axes, "int32", data)
        self._domains[name] = (0, int(bound))
        return buffer

    def _add_buffer(
        self, into: List[SparseBuffer], name: str, axes: Sequence[Axis], dtype: str, data: Optional[np.ndarray]
    ) -> SparseBuffer:
        if any(existing.name == name for existing in [*self._buffers, *self._tables]):
            raise ValueError(f"duplicate buffer name {name!r}")
        buffer = match_sparse_buffer(name, axes, dtype, data)
        into.append(buffer)
        return buffer

    # -- sparse iterations -----------------------------------------------------
    @contextmanager
    def sp_iter(
        self, axes: Sequence[AxisOrGroup], kinds: str, name: str
    ) -> Iterator[Tuple[Var, ...]]:
        """Open a sparse iteration; yields one iterator variable per axis."""
        if self._current is not None:
            raise RuntimeError("nested sp_iter contexts are not supported by the builder; "
                               "build nested iterations explicitly with SparseIteration")
        flat = flatten_axes(axes)
        iter_vars = tuple(Var(axis.name.lower() + "_it", "int32") for axis in flat)
        frame = _IterationFrame(name, tuple(axes), kinds, iter_vars)
        self._current = frame
        try:
            yield iter_vars
        finally:
            self._current = None
        if not frame.stores:
            raise ValueError(f"sparse iteration {name!r} has an empty body")
        body: Stmt = SeqStmt(frame.stores) if len(frame.stores) > 1 else frame.stores[0]
        init: Optional[Stmt] = None
        if frame.inits:
            init = SeqStmt(frame.inits) if len(frame.inits) > 1 else frame.inits[0]
        self._iterations.append(
            SparseIteration(name, frame.axes, kinds, iter_vars, body, init=init)
        )

    def compute(self, target: BufferLoad, value: Union[Expr, float, int]) -> None:
        """Emit ``target = value`` inside the current sparse iteration."""
        frame = self._require_frame()
        frame.stores.append(BufferStore(target.buffer, target.indices, wrap(value)))

    def init(self, target: BufferLoad, value: Union[Expr, float, int]) -> None:
        """Emit an initialisation statement (``with init():`` in the paper)."""
        frame = self._require_frame()
        frame.inits.append(BufferStore(target.buffer, target.indices, wrap(value)))

    def _require_frame(self) -> "_IterationFrame":
        if self._current is None:
            raise RuntimeError("compute()/init() must be called inside a sp_iter context")
        return self._current

    # -- finish ------------------------------------------------------------------
    def finish(self) -> PrimFunc:
        """Produce the stage-I PrimFunc."""
        if self._finished:
            raise RuntimeError("finish() called twice on the same builder")
        if not self._iterations:
            raise ValueError(f"program {self.name!r} has no sparse iterations")
        self._finished = True
        body: Stmt = (
            SeqStmt(self._iterations) if len(self._iterations) > 1 else self._iterations[0]
        )
        return PrimFunc(
            self.name,
            axes=self._axes,
            buffers=self._buffers,
            body=body,
            stage=STAGE_COORDINATE,
            aux_buffers=self._tables,
            attrs={"buffer_domains": dict(self._domains)} if self._domains else None,
        )


class EmitContext:
    """Namespace-aware emission helper for composing operators in one program.

    The graph-level fusion pass merges the stage-I iterations of several
    operators into one :class:`PrimFunc`.  Each operator's ``emit_*`` function
    receives an ``EmitContext`` instead of a bare builder:

    * :meth:`name` prefixes every axis/buffer/iteration name with the
      context's namespace (``ns``), so two fused SpMMs do not collide on
      ``"I"``/``"A"``; with the default empty namespace the emitted program is
      byte-identical to the pre-fusion standalone builders.
    * :meth:`csr_axes` / :meth:`bsr_axes` memoise the sparse (row, column)
      axis pair **per structure object**, so operators fused over the same
      sparsity structure share axis objects — and stage-II lowering then
      reads producer outputs position-directly instead of emitting a
      coordinate binary search.

    The ``ns`` attribute is mutated between nodes by the fusion assembler;
    the shared-axis memo deliberately survives those mutations.
    """

    def __init__(self, builder: ProgramBuilder, ns: str = ""):
        self.builder = builder
        self.ns = ns
        # key -> (axes tuple, structure object); the structure reference keeps
        # the keyed object alive so its id() can never be recycled.
        self._shared: dict = {}

    def name(self, base: str) -> str:
        return f"{self.ns}{base}"

    # -- plain (per-node) axes and buffers --------------------------------------
    def dense_fixed(self, base: str, length: int, idtype: str = "int32") -> Axis:
        return self.builder.dense_fixed(self.name(base), length, idtype)

    def buffer(
        self,
        base: str,
        axes: Sequence[Axis],
        dtype: str = "float32",
        data: Optional[np.ndarray] = None,
    ) -> SparseBuffer:
        return self.builder.match_sparse_buffer(self.name(base), axes, dtype=dtype, data=data)

    def table(self, base: str, axes: Sequence[Axis], data: np.ndarray, bound: int) -> SparseBuffer:
        return self.builder.table(self.name(base), axes, data, bound)

    # -- shared sparse axes ------------------------------------------------------
    def csr_axes(self, csr, row: str = "I", col: str = "J") -> Tuple[Axis, Axis]:
        """The (dense row, sparse column) axis pair of a CSR structure.

        Shared by structure object identity: every operator in the program
        that iterates the same ``csr`` object gets the same axis objects.
        """
        key = ("csr", id(csr))
        hit = self._shared.get(key)
        if hit is None:
            i_axis = self.builder.dense_fixed(self.name(row), csr.rows)
            j_axis = self.builder.sparse_variable(
                self.name(col), parent=i_axis, length=csr.cols, nnz=csr.nnz,
                indptr=csr.indptr, indices=csr.indices,
            )
            hit = ((i_axis, j_axis), csr)
            self._shared[key] = hit
        return hit[0]

    def bsr_axes(self, bsr, row: str = "IB", col: str = "JB") -> Tuple[Axis, Axis]:
        """The (dense block-row, sparse block-column) axis pair of a BSR structure."""
        key = ("bsr", id(bsr))
        hit = self._shared.get(key)
        if hit is None:
            ib_axis = self.builder.dense_fixed(self.name(row), bsr.block_rows)
            jb_axis = self.builder.sparse_variable(
                self.name(col), parent=ib_axis, length=bsr.block_cols, nnz=bsr.num_blocks,
                indptr=bsr.indptr, indices=bsr.indices,
            )
            hit = ((ib_axis, jb_axis), bsr)
            self._shared[key] = hit
        return hit[0]

    # -- iteration pass-throughs -------------------------------------------------
    def sp_iter(self, axes: Sequence[AxisOrGroup], kinds: str, base_name: str):
        return self.builder.sp_iter(axes, kinds, self.name(base_name))

    def compute(self, target: BufferLoad, value) -> None:
        self.builder.compute(target, value)

    def init(self, target: BufferLoad, value) -> None:
        self.builder.init(target, value)


class _IterationFrame:
    def __init__(self, name: str, axes: Tuple[AxisOrGroup, ...], kinds: str, iter_vars: Tuple[Var, ...]):
        self.name = name
        self.axes = axes
        self.kinds = kinds
        self.iter_vars = iter_vars
        self.stores: List[BufferStore] = []
        self.inits: List[BufferStore] = []


__all__ = ["EmitContext", "ProgramBuilder", "fuse"]
