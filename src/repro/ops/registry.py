"""Operator records: the one definition of every operator.

``prepare_<op>(session, ...)`` *is* the operator: its parameter list (minus
``session``) and its docstring are the public signature and documentation of
``Session.<op>`` and ``GraphBuilder.<op>``, which are generated from
:data:`OPERATORS` and keep no copy.  Parameters annotated :data:`Structure`
(at most one) and :data:`Operand` are what the generated methods treat as the
sparsity structure and the per-call dense operands; every other parameter
has a default and is an option.

A ``prepare`` validates arguments, resolves the value dtype
(:func:`repro.runtime.keys.resolve_dtype`), applies tuned overrides and
cached format decompositions, and returns an :class:`OpSpec` — one resolved
application, carrying the callables that used to be looked up by kind:

* ``emit(ctx, spec, bind)`` appends the stage-I iterations to a shared
  :class:`~repro.core.script.EmitContext` and returns the buffers by logical
  role — what graph fusion merges, so "fusable" means "carries an ``emit``";
  with an empty namespace and no bindings the program is byte-identical to
  the standalone one, so singleton graph nodes share kernel-cache entries
  with eager ``Session`` calls;
* ``standalone(ctx, spec, bind)`` does the same for the kinds that only run
  alone (hyb / BSR decompositions: ``prepare`` padded their operands or
  their ``finalize`` is not a reshape);
* ``finalize(spec, flat)`` turns the raw flat output buffer into the
  documented output array.

The emitters live in the ``ops`` module beside the operator's reference and
choose the buffer names; nothing here spells one.  The callables are set
where ``prepare`` knows the kind, and read operands through ``spec.inputs``
only — a bound-kernel handle keeps the spec with its
inputs dropped, and must not pin a caller's arrays.

``Session._execute`` (or a :class:`~repro.graph.compile.CompiledGraph` for
captured specs) builds the spec's program, binds the kernel
(:class:`~repro.runtime.bound.BoundKernel`), runs it and finalises.  A warm
eager call skips ``prepare`` as well: the session memoises the bound kernel.

Inputs recorded in ``OpSpec.inputs`` may be NumPy arrays (eager calls,
graph-captured constants), ``None`` (bound at run time) or lightweight
reference objects exposing ``shape``/``dtype`` (graph edges; anything with a
true ``is_ref`` attribute).  Only arrays are baked into programs as buffer
defaults.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from ..core.program import PrimFunc
from ..core.script import EmitContext, ProgramBuilder
from .batched import (
    bsr_element_permutation,
    emit_batched_sddmm,
    emit_batched_sddmm_bsr,
    emit_batched_spmm,
    emit_batched_spmm_bsr,
    emit_batched_spmm_edges,
    emit_edge_softmax,
)
from .elementwise import emit_add, emit_gemm, emit_relu
from .pruned_spmm import emit_pruned_spmm_bsr
from .rgms import emit_rgms
from .sddmm import emit_sddmm
from .sparse_conv import emit_sparse_conv
from .spmm import emit_spmm, emit_spmm_hyb

#: Annotation of the parameter naming the sparsity structure an operator
#: iterates (a handle is keyed on its identity).
Structure = Any
#: Annotation of a dense operand: an array, or a graph edge during capture.
Operand = Any

#: ``(ctx, spec, bind) -> buffers by logical role``.
Emit = Callable[[EmitContext, "OpSpec", Optional[Dict[str, Any]]], Dict[str, Any]]


@dataclass
class OpSpec:
    """One fully-resolved operator application.

    Attributes
    ----------
    kind:
        Name of the exact program family that will run (``"spmm"``,
        ``"batched_sddmm_bsr"``, ``"relu"``, ...): format and tuning
        resolution happened in ``prepare_*``.
    structure:
        The sparsity-structure object the program iterates (CSR/BSR/hyb/CSF
        matrix, sparse-conv problem) or ``None`` for dense operators.
    inputs:
        Logical input name -> array / ``None`` / graph reference.
    dtype:
        Resolved value dtype (``"float32"`` / ``"float64"``).
    out_shape:
        Shape of the finalised output array.
    program_name:
        Name of the standalone program (must match the historical builders so
        structural fingerprints — and therefore kernel/tuning caches — are
        unchanged).
    finalize:
        ``(spec, flat) -> output array``.
    emit / standalone:
        Exactly one is set (see the module docstring).
    """

    kind: str
    structure: Any
    inputs: Dict[str, Any]
    dtype: str
    out_shape: Tuple[int, ...]
    program_name: str
    finalize: Callable[["OpSpec", np.ndarray], np.ndarray]
    emit: Optional[Emit] = None
    standalone: Optional[Emit] = None

    @property
    def fusable(self) -> bool:
        """Whether the operator can be emitted into a shared program."""
        return self.emit is not None

    def input_array(self, name: str) -> Optional[np.ndarray]:
        """The input as an array, or ``None`` when unbound / a graph edge."""
        value = self.inputs.get(name)
        if value is None or getattr(value, "is_ref", False):
            return None
        return value


def _is_ref(value: Any) -> bool:
    return getattr(value, "is_ref", False)


def _pad_axis(array: np.ndarray, axis: int, length: int) -> np.ndarray:
    """Zero-pad one axis of *array* up to *length* (no-op when equal)."""
    if array.shape[axis] == length:
        return array
    pad = [(0, 0)] * array.ndim
    pad[axis] = (0, length - array.shape[axis])
    return np.pad(array, pad)


def _as_value(value: Any, dtype: str) -> Any:
    """Cast eager arrays to the resolved dtype; pass refs/None through."""
    if value is None or _is_ref(value):
        return value
    return np.asarray(value, dtype=dtype)


def _resolve_dtype(values: Any, dtype: Any) -> str:
    from ..runtime.keys import resolve_dtype  # deferred: the runtime package imports this module

    return resolve_dtype(values, dtype)


def _reshape(spec: OpSpec, flat: np.ndarray) -> np.ndarray:
    return flat.reshape(spec.out_shape)


def _edge_values(spec: OpSpec, flat: np.ndarray) -> np.ndarray:
    """One segment of stored values per leading index, cut to the structure's nnz."""
    return flat.reshape(spec.out_shape[:-1] + (-1,))[..., : spec.out_shape[-1]]


# ---------------------------------------------------------------------------
# prepare_* — the operators
# ---------------------------------------------------------------------------

def prepare_spmm(
    session: Any,
    csr: Structure,
    features: Operand,
    format: str = "csr",
    num_col_parts: int = 1,
    num_buckets: Optional[int] = None,
    dtype: Any = None,
    tuned: bool = False,
) -> OpSpec:
    """``A @ X`` through the full compile/execute pipeline.

    A matrix that has been edited
    (:meth:`~repro.formats.csr.CSRMatrix.insert_edges`) feeds its current
    tables to the kernel bound to its capacity, so an edit compiles
    nothing, bit-exact with a cold rebuild (see ``docs/dynamic.md``).

    Args:
        csr: The sparse matrix (:class:`~repro.formats.csr.CSRMatrix`).
        features: Dense operand of shape ``(cols, feat)``.
        format: ``"csr"`` runs the Figure-3 CSR program; ``"hyb"``
            decomposes into the composable ``hyb`` format first (cached)
            and runs the per-bucket ELL programs.
        num_col_parts: Column partitions of the ``hyb`` decomposition.
        num_buckets: Bucket count of the ``hyb`` decomposition.
        dtype: Value dtype to compute in (``float32``/``float64``).
            ``None`` infers from the operands (float64 anywhere means a
            float64 kernel); the dtype is part of the program structure,
            so float32 and float64 callers never share a cached kernel.
        tuned: Apply the autotuned decomposition recorded for this
            structure (see :meth:`~repro.runtime.session.Session.autotune`),
            overriding ``format`` / ``num_col_parts`` / ``num_buckets``.
            Without a record the explicit parameters are used unchanged.

    Returns:
        The dense product, shape ``(rows, feat)`` in the resolved dtype.
    """
    value_dtype = _resolve_dtype((features, csr.data), dtype)
    features = _as_value(features, value_dtype)
    feat_size = features.shape[1]
    if features.shape[0] != csr.cols:
        raise ValueError(
            f"features have {features.shape[0]} rows, expected {csr.cols}"
        )
    if tuned:
        from ..tune.spaces import SpMMProblem

        overrides = session._tuned_overrides("spmm", SpMMProblem(csr, feat_size))
        format = overrides.get("format", format)
        num_col_parts = overrides.get("num_col_parts", num_col_parts)
        num_buckets = overrides.get("num_buckets", num_buckets)
    if format == "csr":
        return OpSpec(
            kind="spmm", structure=csr, inputs={"features": features}, dtype=value_dtype,
            out_shape=(csr.rows, feat_size), program_name="spmm", finalize=_reshape,
            emit=lambda ctx, spec, bind: emit_spmm(
                ctx, spec.structure, feat_size, spec.input_array("features"),
                dtype=spec.dtype, bind=bind,
            ),
        )
    if format == "hyb":
        hyb = session.decompose_hyb(csr, num_col_parts=num_col_parts, num_buckets=num_buckets)
        return OpSpec(
            kind="spmm_hyb", structure=hyb, inputs={"features": features}, dtype=value_dtype,
            out_shape=(csr.rows, feat_size), program_name="spmm_hyb", finalize=_reshape,
            standalone=lambda ctx, spec, bind: emit_spmm_hyb(
                ctx, spec.structure, feat_size, spec.input_array("features"),
                dtype=spec.dtype, bind=bind,
            ),
        )
    raise ValueError(f"unknown SpMM format {format!r}; use 'csr' or 'hyb'")


def prepare_sddmm(
    session: Any,
    csr: Structure,
    x: Operand,
    y: Operand,
    fuse_ij: bool = True,
    dtype: Any = None,
    tuned: bool = False,
) -> OpSpec:
    """Sampled dense-dense matmul at the non-zeros of ``csr``.

    A matrix that has been edited feeds its current tables to the kernel
    bound to its capacity (the fused loop: to its nnz), bit-exact with a
    cold rebuild (see ``docs/dynamic.md``).

    Args:
        csr: The sampling structure (values scale each edge score).
        x: Dense operand of shape ``(rows, feat)``.
        y: Dense operand of shape ``(feat, cols)``.
        fuse_ij: Iterate the (row, edge) axes as one fused loop.
        dtype: Value dtype to compute in; ``None`` infers from the operands.
        tuned: Apply the autotuned loop structure recorded for this
            structure (overrides ``fuse_ij`` when a record exists).

    Returns:
        The new edge values in CSR order, shape ``(nnz,)``.
    """
    value_dtype = _resolve_dtype((x, y, csr.data), dtype)
    x = _as_value(x, value_dtype)
    y = _as_value(y, value_dtype)
    feat_size = x.shape[1]
    if tuned:
        from ..tune.spaces import SDDMMProblem

        overrides = session._tuned_overrides("sddmm", SDDMMProblem(csr, feat_size))
        fuse_ij = overrides.get("fuse_ij", fuse_ij)
    return OpSpec(
        kind="sddmm", structure=csr, inputs={"x": x, "y": y}, dtype=value_dtype,
        out_shape=(csr.nnz,), program_name="sddmm", finalize=_edge_values,
        emit=lambda ctx, spec, bind: emit_sddmm(
            ctx, spec.structure, feat_size, spec.input_array("x"), spec.input_array("y"),
            fuse_ij=fuse_ij, dtype=spec.dtype, bind=bind,
        ),
    )


def prepare_pruned_spmm(session: Any, bsr: Structure, x: Operand) -> OpSpec:
    """``W @ X`` with a BSR (block-pruned) weight matrix.

    Args:
        bsr: The pruned weights (:class:`~repro.formats.bsr.BSRMatrix`).
        x: Dense activation of shape ``(in_features, seq_len)``.

    Returns:
        The product, shape ``(out_features, seq_len)``.
    """
    x = _as_value(x, "float32")
    seq_len = x.shape[1]
    return OpSpec(
        kind="pruned_spmm", structure=bsr, inputs={"x": x}, dtype="float32",
        out_shape=(bsr.shape[0], seq_len), program_name="pruned_spmm_bsr", finalize=_reshape,
        standalone=lambda ctx, spec, bind: emit_pruned_spmm_bsr(
            ctx, spec.structure, seq_len, spec.input_array("x")
        ),
    )


def prepare_batched_spmm(
    session: Any,
    csr: Structure,
    features: Operand,
    format: str = "csr",
    block_size: int = 16,
    dtype: Any = None,
    tuned: bool = False,
) -> OpSpec:
    """Multi-head SpMM ``O[h] = A @ X[h]`` with a shared sparse mask.

    The head axis is a dense batch loop of the generated program, so the
    compiled tiers flatten it into lanes alongside rows and features.

    Args:
        csr: The shared mask (:class:`~repro.formats.csr.CSRMatrix`).
        features: Per-head operands, shape ``(heads, cols, feat)``.
        format: ``"csr"`` for the scalar program, ``"bsr"`` for the
            block program over the cached BSR decomposition.
        block_size: BSR block size (``format="bsr"`` only).
        dtype: Value dtype (``float32``/``float64``).  ``None`` keeps
            the historical float32 default (batched attention is a float32
            workload) rather than promoting; an explicit ``float64``
            (CSR format only) makes the whole kernel — and its cache
            fingerprint — double precision, which is what lets the
            serving batcher coalesce float64 requests bit-exactly.
        tuned: Apply the ``attention`` tuning record for this mask and
            shape (overrides ``format`` / ``block_size``).

    Returns:
        The per-head products, shape ``(heads, rows, feat)``.
    """
    value_dtype = "float32" if dtype is None else _resolve_dtype(features, dtype)
    features = _as_value(features, value_dtype)
    if len(features.shape) != 3:
        raise ValueError("features must be (heads, cols, feat)")
    heads, cols, feat = features.shape
    if cols != csr.cols:
        raise ValueError(f"features have {cols} rows per head, expected {csr.cols}")
    if tuned:
        from ..tune.spaces import AttentionProblem

        overrides = session._tuned_overrides("attention", AttentionProblem(csr, heads, feat))
        format = overrides.get("format", format)
        block_size = overrides.get("block_size", block_size)
    if format == "csr":
        return OpSpec(
            kind="batched_spmm", structure=csr, inputs={"features": features},
            dtype=value_dtype, out_shape=(heads, csr.rows, feat),
            program_name="batched_spmm", finalize=_reshape,
            emit=lambda ctx, spec, bind: emit_batched_spmm(
                ctx, spec.structure, heads, feat, spec.input_array("features"),
                dtype=spec.dtype, bind=bind,
            ),
        )
    if value_dtype != "float32":
        raise ValueError(
            f"batched_spmm over {format!r} computes in float32 only; "
            "use format='csr' for float64"
        )
    if format == "bsr":
        if _is_ref(features):
            raise ValueError(
                "batched_spmm over BSR pads its features eagerly and cannot "
                "take a graph edge; capture the CSR format instead"
            )
        bsr = session.decompose_bsr(csr, block_size)
        return OpSpec(
            kind="batched_spmm_bsr", structure=bsr,
            inputs={"features": _pad_axis(features, axis=1, length=bsr.shape[1])},
            dtype="float32", out_shape=(heads, csr.rows, feat),
            program_name="batched_spmm_bsr",
            # The program computes the block-padded rows; cut back to the mask's.
            finalize=lambda spec, flat: flat.reshape(heads, -1, feat)[:, : spec.out_shape[1]],
            standalone=lambda ctx, spec, bind: emit_batched_spmm_bsr(
                ctx, spec.structure, heads, feat, spec.input_array("features")
            ),
        )
    raise ValueError(f"unknown batched-SpMM format {format!r}; use 'csr' or 'bsr'")


def prepare_batched_sddmm(
    session: Any,
    csr: Structure,
    q: Operand,
    k: Operand,
    format: str = "csr",
    block_size: int = 16,
    fuse_ij: bool = True,
    scale: Optional[float] = None,
    dtype: Any = None,
    tuned: bool = False,
) -> OpSpec:
    """Multi-head SDDMM ``S[h] = (Q[h] @ K[h]) * mask`` at the mask's nnz.

    Args:
        csr: The shared mask.
        q: Per-head queries, shape ``(heads, rows, feat)``.
        k: Per-head keys, shape ``(heads, feat, cols)``.
        format: ``"csr"`` (fused edge loop) or ``"bsr"`` (per-block
            matmuls over the cached BSR decomposition; requires a
            block-aligned mask).
        block_size: BSR block size (``format="bsr"`` only).
        fuse_ij: Iterate the (row, edge) axes as one fused loop
            (``format="csr"`` only).
        scale: Optional score scaling (e.g. ``1/sqrt(d)``) applied by a
            pointwise rescaling iteration inside the same kernel.
        dtype: Value dtype (``float32``/``float64``).  ``None`` keeps
            the historical float32 default; explicit ``float64`` is
            CSR-format only (see ``batched_spmm``).
        tuned: Apply the ``attention`` tuning record for this mask and
            shape (overrides ``format`` / ``block_size``).

    Returns:
        Per-head edge scores in CSR order, shape ``(heads, nnz)``.
    """
    value_dtype = "float32" if dtype is None else _resolve_dtype((q, k), dtype)
    q = _as_value(q, value_dtype)
    k = _as_value(k, value_dtype)
    if len(q.shape) != 3 or len(k.shape) != 3:
        raise ValueError("q and k must be 3-D (heads, ., .)")
    heads, _, feat = q.shape
    if tuned:
        from ..tune.spaces import AttentionProblem

        overrides = session._tuned_overrides("attention", AttentionProblem(csr, heads, feat))
        format = overrides.get("format", format)
        block_size = overrides.get("block_size", block_size)
    if format == "csr":
        return OpSpec(
            kind="batched_sddmm", structure=csr, inputs={"q": q, "k": k}, dtype=value_dtype,
            out_shape=(heads, csr.nnz), program_name="batched_sddmm", finalize=_edge_values,
            emit=lambda ctx, spec, bind: emit_batched_sddmm(
                ctx, spec.structure, heads, feat, spec.input_array("q"), spec.input_array("k"),
                fuse_ij=fuse_ij, scale=scale, dtype=spec.dtype, bind=bind,
            ),
        )
    if value_dtype != "float32":
        raise ValueError(
            f"batched_sddmm over {format!r} computes in float32 only; "
            "use format='csr' for float64"
        )
    if format == "bsr":
        if _is_ref(q) or _is_ref(k):
            raise ValueError(
                "batched_sddmm over BSR pads its operands eagerly and cannot "
                "take graph edges; capture the CSR format instead"
            )
        from ..runtime.keys import content_key

        bsr = session.decompose_bsr(csr, block_size)
        perm_key = content_key("bsr_perm", csr.shape, csr.indptr, csr.indices, block_size)
        perm = session._memoized_format(perm_key, lambda: bsr_element_permutation(csr, bsr))
        return OpSpec(
            kind="batched_sddmm_bsr", structure=bsr,
            inputs={
                "q": _pad_axis(q, axis=1, length=bsr.shape[0]),
                "k": _pad_axis(k, axis=2, length=bsr.shape[1]),
            },
            dtype="float32", out_shape=(heads, csr.nnz), program_name="batched_sddmm_bsr",
            # Block order back to the mask's CSR element order.
            finalize=lambda spec, flat: flat.reshape(heads, -1)[:, perm],
            standalone=lambda ctx, spec, bind: emit_batched_sddmm_bsr(
                ctx, spec.structure, heads, feat, spec.input_array("q"), spec.input_array("k"),
                scale=scale,
            ),
        )
    raise ValueError(f"unknown batched-SDDMM format {format!r}; use 'csr' or 'bsr'")


def prepare_rgms(
    session: Any, adjacency: Structure, x: Operand, w: Operand, tuned: bool = False
) -> OpSpec:
    """Relational gather-matmul-scatter over a CSF adjacency tensor.

    One program per adjacency structure: the relation dimension unrolls
    into per-relation sparse iterations that share the output buffer, so
    repeated calls (RGCN layers, forward passes) reuse one cached build.

    Args:
        adjacency: :class:`~repro.formats.csf.CSFTensor` of shape
            ``(R, n, n)``.
        x: Node features, shape ``(n, d_in)``.
        w: Per-relation weights, shape ``(R, d_in, d_out)``; always a
            constant array (baked into per-relation buffers), never a
            graph edge.
        tuned: Accepted for API uniformity with the other workloads.
            The RGMS tuning record picks between launch *strategies* in
            the cost model; the runtime has a single fused program, so
            no execution parameter changes.

    Returns:
        Aggregated features, shape ``(n, d_out)``.
    """
    if _is_ref(w):
        raise ValueError("rgms weights must be constant arrays, not graph edges")
    x = _as_value(x, "float32")
    w = np.asarray(w, dtype=np.float32)
    if len(x.shape) != 2 or w.ndim != 3:
        raise ValueError("x must be (n, d_in) and w (R, d_in, d_out)")
    in_feats, out_feats = x.shape[1], w.shape[2]
    return OpSpec(
        kind="rgms", structure=adjacency, inputs={"x": x, "w": w}, dtype="float32",
        out_shape=(adjacency.shape[1], out_feats), program_name="rgms", finalize=_reshape,
        emit=lambda ctx, spec, bind: emit_rgms(
            ctx, spec.structure, in_feats, out_feats, spec.input_array("x"), spec.inputs["w"],
            bind=bind,
        ),
    )


def prepare_sparse_conv(
    session: Any, problem: Structure, features: Operand, weights: Operand, tuned: bool = False
) -> OpSpec:
    """Fused gather-GEMM-scatter sparse convolution over kernel maps.

    Args:
        problem: :class:`~repro.ops.sparse_conv.SparseConvProblem`
            describing the layer's ELL(1) kernel-map relations.
        features: Input voxel features, ``(num_in_points, in_channels)``.
        weights: Kernel weights,
            ``(kernel_volume, in_channels, out_channels)``; always a
            constant array, never a graph edge.
        tuned: Accepted for API uniformity with the other workloads; the
            sparse-conv record picks between launch strategies in the
            cost model, the runtime has a single fused program.

    Returns:
        Output voxel features, ``(num_out_points, out_channels)``.
    """
    if _is_ref(weights):
        raise ValueError("sparse_conv weights must be constant arrays, not graph edges")
    features = _as_value(features, "float32")
    weights = np.asarray(weights, dtype=np.float32)
    return OpSpec(
        kind="sparse_conv", structure=problem,
        inputs={"features": features, "weights": weights}, dtype="float32",
        out_shape=(problem.num_out_points, problem.out_channels),
        program_name="sparse_conv", finalize=_reshape,
        emit=lambda ctx, spec, bind: emit_sparse_conv(
            ctx, spec.structure, spec.input_array("features"), spec.inputs["weights"], bind=bind
        ),
    )


def prepare_edge_softmax(
    session: Any, csr: Structure, scores: Operand, dtype: Any = None
) -> OpSpec:
    """Row-wise softmax over the stored edges, per head.

    Args:
        csr: The sparsity structure whose edges carry the scores.
        scores: Per-head edge scores in CSR order, shape ``(heads, nnz)``.
        dtype: Value dtype to compute in; ``None`` infers from ``scores``.

    Returns:
        The attention probabilities in CSR order, shape ``(heads, nnz)``.
    """
    value_dtype = _resolve_dtype(scores, dtype)
    scores = _as_value(scores, value_dtype)
    if len(scores.shape) != 2 or scores.shape[1] != csr.nnz:
        raise ValueError("scores must be (heads, nnz)")
    heads = scores.shape[0]
    return OpSpec(
        kind="edge_softmax", structure=csr, inputs={"scores": scores}, dtype=value_dtype,
        out_shape=(heads, csr.nnz), program_name="edge_softmax", finalize=_reshape,
        emit=lambda ctx, spec, bind: emit_edge_softmax(
            ctx, spec.structure, heads, spec.input_array("scores"), dtype=spec.dtype, bind=bind
        ),
    )


def prepare_batched_spmm_edges(
    session: Any, csr: Structure, edge_values: Operand, features: Operand, dtype: Any = None
) -> OpSpec:
    """Multi-head SpMM with per-head edge values (the attention consumer).

    Args:
        csr: The shared mask structure.
        edge_values: Per-head edge values in CSR order, ``(heads, nnz)``.
        features: Per-head dense operands, ``(heads, cols, feat)``.
        dtype: Value dtype to compute in; ``None`` infers from operands.

    Returns:
        The per-head products, shape ``(heads, rows, feat)``.
    """
    value_dtype = _resolve_dtype((edge_values, features), dtype)
    edge_values = _as_value(edge_values, value_dtype)
    features = _as_value(features, value_dtype)
    if len(edge_values.shape) != 2 or edge_values.shape[1] != csr.nnz:
        raise ValueError("edge_values must be (heads, nnz)")
    if len(features.shape) != 3 or features.shape[1] != csr.cols:
        raise ValueError("features must be (heads, cols, feat)")
    heads, feat = edge_values.shape[0], features.shape[2]
    return OpSpec(
        kind="batched_spmm_edges", structure=csr,
        inputs={"edge_values": edge_values, "features": features}, dtype=value_dtype,
        out_shape=(heads, csr.rows, feat), program_name="batched_spmm_edges", finalize=_reshape,
        emit=lambda ctx, spec, bind: emit_batched_spmm_edges(
            ctx, spec.structure, heads, feat, spec.input_array("edge_values"),
            spec.input_array("features"), dtype=spec.dtype, bind=bind,
        ),
    )


def prepare_gemm(session: Any, a: Operand, b: Operand, dtype: Any = None) -> OpSpec:
    """Dense ``A @ B`` through the generated-kernel pipeline."""
    value_dtype = _resolve_dtype((a, b), dtype)
    a = _as_value(a, value_dtype)
    b = _as_value(b, value_dtype)
    if len(a.shape) != 2 or len(b.shape) != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"gemm shapes do not agree: {a.shape} @ {b.shape}")
    (m, kk), n = a.shape, b.shape[1]
    return OpSpec(
        kind="gemm", structure=None, inputs={"a": a, "b": b}, dtype=value_dtype,
        out_shape=(m, n), program_name="gemm", finalize=_reshape,
        emit=lambda ctx, spec, bind: emit_gemm(
            ctx, m, kk, n, spec.input_array("a"), spec.input_array("b"),
            dtype=spec.dtype, bind=bind,
        ),
    )


def prepare_add(session: Any, a: Operand, b: Operand, dtype: Any = None) -> OpSpec:
    """Element-wise ``A + B`` through the generated-kernel pipeline."""
    value_dtype = _resolve_dtype((a, b), dtype)
    a = _as_value(a, value_dtype)
    b = _as_value(b, value_dtype)
    if len(a.shape) != 2 or a.shape != b.shape:
        raise ValueError(f"add shapes do not agree: {a.shape} + {b.shape}")
    m, n = a.shape
    return OpSpec(
        kind="add", structure=None, inputs={"a": a, "b": b}, dtype=value_dtype,
        out_shape=(m, n), program_name="add", finalize=_reshape,
        emit=lambda ctx, spec, bind: emit_add(
            ctx, m, n, spec.input_array("a"), spec.input_array("b"), dtype=spec.dtype, bind=bind
        ),
    )


def prepare_relu(session: Any, a: Operand, dtype: Any = None) -> OpSpec:
    """Element-wise ``max(A, 0)`` through the generated-kernel pipeline."""
    value_dtype = _resolve_dtype(a, dtype)
    a = _as_value(a, value_dtype)
    if len(a.shape) != 2:
        raise ValueError("relu expects a 2-D matrix")
    m, n = a.shape
    return OpSpec(
        kind="relu", structure=None, inputs={"a": a}, dtype=value_dtype,
        out_shape=(m, n), program_name="relu", finalize=_reshape,
        emit=lambda ctx, spec, bind: emit_relu(
            ctx, m, n, spec.input_array("a"), dtype=spec.dtype, bind=bind
        ),
    )


#: The operators, by public name in documentation order: ``Session`` and
#: ``GraphBuilder`` grow one method per entry.
OPERATORS: Dict[str, Callable[..., OpSpec]] = {
    fn.__name__[len("prepare_"):]: fn
    for fn in (
        prepare_spmm, prepare_sddmm, prepare_pruned_spmm, prepare_batched_spmm,
        prepare_batched_sddmm, prepare_rgms, prepare_sparse_conv, prepare_edge_softmax,
        prepare_batched_spmm_edges, prepare_gemm, prepare_add, prepare_relu,
    )
}


def as_method(method: Any, owner: str, prepare: Callable[..., OpSpec], returns: str) -> Any:
    """Give a generated *method* of class *owner* the public face of *prepare*.

    Name, docstring and signature (``session`` becomes ``self``) — what
    ``help()``, ``inspect.signature`` and the docs build read.
    """
    signature = inspect.signature(prepare)
    session, *public = signature.parameters.values()
    method.__name__ = prepare.__name__[len("prepare_"):]
    method.__qualname__ = f"{owner}.{method.__name__}"
    method.__doc__ = prepare.__doc__
    method.__signature__ = signature.replace(
        parameters=[session.replace(name="self", annotation=session.empty), *public],
        return_annotation=returns,
    )
    return method


# ---------------------------------------------------------------------------
# The four entry points
# ---------------------------------------------------------------------------

def prepare(session: Any, kind: str, *args: Any, **kwargs: Any) -> OpSpec:
    """Resolve one operator application into an :class:`OpSpec`."""
    if kind not in OPERATORS:
        raise ValueError(f"unknown operator kind {kind!r}")
    return OPERATORS[kind](session, *args, **kwargs)


def emit_spec(
    ctx: EmitContext, spec: OpSpec, bind: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Emit the spec's iterations into *ctx*; returns buffers by logical role.

    Only valid for ``spec.fusable`` kinds.  ``bind`` maps logical input names
    to already-emitted buffers (fused producers); unbound inputs become fresh
    buffers whose data defaults are the spec's arrays (graph references bake
    no data — their values arrive as run-time bindings).
    """
    if spec.emit is None:
        raise ValueError(f"operator kind {spec.kind!r} cannot be emitted into a shared program")
    return spec.emit(ctx, spec, bind)


def build_spec_program(spec: OpSpec) -> Tuple[PrimFunc, Dict[str, str]]:
    """The spec's standalone program plus logical-name -> buffer-name map.

    Built by the spec's own ``emit`` / ``standalone`` into an empty
    namespace, so the program — and therefore its structural fingerprint —
    is identical to the public ``build_*_program`` output.

    A ``"values"`` entry names the buffer holding ``spec.structure.data``
    (where the program reads the structure's own value array), so a bound
    kernel can re-read it on every call.
    """
    ctx = EmitContext(ProgramBuilder(spec.program_name))
    buffers = (spec.emit or spec.standalone)(ctx, spec, None)
    return ctx.builder.finish(), {role: buf.name for role, buf in buffers.items()}


def finalize(spec: OpSpec, flat: np.ndarray) -> np.ndarray:
    """Reshape/slice the operator's raw flat output buffer."""
    return spec.finalize(spec, flat)


__all__ = ["OpSpec", "OPERATORS", "prepare", "emit_spec", "build_spec_program", "finalize"]
