"""Operator specs: the single description every execution path shares.

The ``Session`` operator methods, the module-level ``ops.*`` free functions
and the graph capture front-end (:mod:`repro.graph`) all funnel into the same
two-step protocol:

1. ``prepare_<kind>(session, ...)`` validates arguments, resolves the value
   dtype (:func:`repro.runtime.keys.resolve_dtype`), applies tuned overrides
   and cached format decompositions, and returns an :class:`OpSpec` — a
   self-contained description of one operator application;
2. ``Session._execute`` (or a :class:`~repro.graph.compile.CompiledGraph`
   for captured specs) builds the spec's program, binds the kernel
   (:class:`~repro.runtime.bound.BoundKernel`), runs it and finalises the
   raw flat buffers into the operator's documented output array.  A warm
   eager call skips step 1 as well: the session memoises the bound kernel.

Specs whose ``fusable`` flag is set also know how to *emit* their stage-I
iterations into a shared program (:func:`emit_spec`), which is what the
graph fusion pass uses to merge adjacent operators into one kernel; with an
empty namespace and no bindings the emitted program is byte-identical to the
standalone one, so singleton graph nodes share kernel-cache entries with
eager ``Session`` calls.

Inputs recorded in ``OpSpec.inputs`` may be NumPy arrays (eager calls,
graph-captured constants), ``None`` (bound at run time) or lightweight
reference objects exposing ``shape``/``dtype`` (graph edges; anything with a
true ``is_ref`` attribute).  Only arrays are baked into programs as buffer
defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from ..core.program import PrimFunc
from ..core.script import EmitContext, ProgramBuilder
from ..runtime.keys import content_key, resolve_dtype


@dataclass
class OpSpec:
    """One fully-resolved operator application.

    Attributes
    ----------
    kind:
        Registry key (``"spmm"``, ``"batched_sddmm_bsr"``, ``"relu"``, ...).
        Format/tuning resolution happens in ``prepare_*``, so the kind names
        the exact program family that will run.
    structure:
        The sparsity-structure object the program iterates (CSR/BSR/hyb/CSF
        matrix, sparse-conv problem) or ``None`` for dense operators.
    structure_key:
        Content hash of the *fusion-relevant* sparsity pattern, or ``None``
        for dense operators and derived formats.  A property: hashing the
        whole pattern is O(nnz), so it is computed on first access.
    params:
        Plain parameters of the program builder (sizes, scale, permutations).
    inputs:
        Logical input name -> array / ``None`` / graph reference.
    dtype:
        Resolved value dtype (``"float32"`` / ``"float64"``).
    out_shape:
        Shape of the finalised output array.
    fusable:
        Whether the operator can be emitted into a shared program.  Kinds
        whose finalisation is not a pure reshape (BSR padding/permutation,
        hyb decompositions) stay unfusable and always run standalone.
    program_name:
        Name of the standalone program (must match the historical builders so
        structural fingerprints — and therefore kernel/tuning caches — are
        unchanged).
    """

    kind: str
    structure: Any
    params: Dict[str, Any]
    inputs: Dict[str, Any]
    dtype: str
    out_shape: Tuple[int, ...]
    fusable: bool
    program_name: str
    extra_outputs: Dict[str, Any] = field(default_factory=dict)
    _structure_key: Optional[str] = field(default=None, repr=False)

    @property
    def structure_key(self) -> Optional[str]:
        if self._structure_key is None:
            hasher = _STRUCTURE_KEYS.get(self.kind)
            if hasher is not None:
                self._structure_key = hasher(self.structure)
        return self._structure_key

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


def csr_structure_key(csr: Any) -> str:
    """Content hash of a CSR sparsity pattern (values excluded)."""
    return content_key("csr", csr.shape, csr.indptr, csr.indices)


def csf_structure_key(adjacency: Any) -> str:
    """Content hash of a CSF adjacency (per-relation patterns)."""
    parts: list = ["csf", adjacency.shape]
    for matrix in adjacency.slices:
        if matrix is None:
            parts.append(None)
        else:
            parts.extend((matrix.indptr, matrix.indices))
    return content_key(*parts)


def conv_structure_key(problem: Any) -> str:
    """Content hash of a sparse-conv problem's kernel maps."""
    parts: list = ["conv", problem.num_in_points, problem.num_out_points]
    for pairs in problem.kernel_maps:
        parts.append(np.asarray(pairs).reshape(-1))
    return content_key(*parts)


#: Pattern hasher per operator kind; kinds not listed have no structure key.
_STRUCTURE_KEYS: Dict[str, Callable[[Any], str]] = {
    "spmm": csr_structure_key,
    "sddmm": csr_structure_key,
    "batched_spmm": csr_structure_key,
    "batched_sddmm": csr_structure_key,
    "edge_softmax": csr_structure_key,
    "batched_spmm_edges": csr_structure_key,
    "rgms": csf_structure_key,
    "sparse_conv": conv_structure_key,
}


# ---------------------------------------------------------------------------
# prepare_* — argument resolution into OpSpecs
# ---------------------------------------------------------------------------

def prepare_spmm(
    session: Any,
    csr: Any,
    features: Any,
    format: str = "csr",
    num_col_parts: int = 1,
    num_buckets: Optional[int] = None,
    dtype: Any = None,
    tuned: bool = False,
) -> OpSpec:
    value_dtype = resolve_dtype((features, csr.data), dtype)
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
            kind="spmm", structure=csr,
            params={"feat_size": feat_size, "rows": csr.rows},
            inputs={"features": features}, dtype=value_dtype,
            out_shape=(csr.rows, feat_size), fusable=True, program_name="spmm",
        )
    if format == "hyb":
        hyb = session.decompose_hyb(csr, num_col_parts=num_col_parts, num_buckets=num_buckets)
        return OpSpec(
            kind="spmm_hyb", structure=hyb,
            params={"feat_size": feat_size, "rows": csr.rows},
            inputs={"features": features}, dtype=value_dtype,
            out_shape=(csr.rows, feat_size), fusable=False, program_name="spmm_hyb",
        )
    raise ValueError(f"unknown SpMM format {format!r}; use 'csr' or 'hyb'")


def prepare_sddmm(
    session: Any,
    csr: Any,
    x: Any,
    y: Any,
    fuse_ij: bool = True,
    dtype: Any = None,
    tuned: bool = False,
) -> OpSpec:
    value_dtype = resolve_dtype((x, y, csr.data), dtype)
    x = _as_value(x, value_dtype)
    y = _as_value(y, value_dtype)
    if tuned:
        from ..tune.spaces import SDDMMProblem

        overrides = session._tuned_overrides("sddmm", SDDMMProblem(csr, x.shape[1]))
        fuse_ij = overrides.get("fuse_ij", fuse_ij)
    return OpSpec(
        kind="sddmm", structure=csr,
        params={"feat_size": x.shape[1], "fuse_ij": fuse_ij, "nnz": csr.nnz},
        inputs={"x": x, "y": y}, dtype=value_dtype,
        out_shape=(csr.nnz,), fusable=True, program_name="sddmm",
    )


def prepare_pruned_spmm(session: Any, bsr: Any, x: Any) -> OpSpec:
    x = _as_value(x, "float32")
    return OpSpec(
        kind="pruned_spmm", structure=bsr,
        params={"seq_len": x.shape[1], "out_rows": bsr.shape[0]},
        inputs={"x": x}, dtype="float32",
        out_shape=(bsr.shape[0], x.shape[1]), fusable=False,
        program_name="pruned_spmm_bsr",
    )


def prepare_batched_spmm(
    session: Any,
    csr: Any,
    features: Any,
    format: str = "csr",
    block_size: int = 16,
    dtype: Any = None,
    tuned: bool = False,
) -> OpSpec:
    # ``None`` keeps the historical float32 default (batched attention is a
    # float32 workload) rather than promoting — explicit float64 callers
    # (e.g. coalesced float64 serving requests) must opt in.
    value_dtype = "float32" if dtype is None else resolve_dtype(features, dtype)
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
            kind="batched_spmm", structure=csr,
            params={"heads": heads, "feat_size": feat, "rows": csr.rows},
            inputs={"features": features}, dtype=value_dtype,
            out_shape=(heads, csr.rows, feat), fusable=True, program_name="batched_spmm",
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
        padded = _pad_axis(features, axis=1, length=bsr.shape[1])
        return OpSpec(
            kind="batched_spmm_bsr", structure=bsr,
            params={
                "heads": heads, "feat_size": feat,
                "rows": csr.rows, "padded_rows": bsr.shape[0],
            },
            inputs={"features": padded}, dtype="float32",
            out_shape=(heads, csr.rows, feat), fusable=False,
            program_name="batched_spmm_bsr",
        )
    raise ValueError(f"unknown batched-SpMM format {format!r}; use 'csr' or 'bsr'")


def prepare_batched_sddmm(
    session: Any,
    csr: Any,
    q: Any,
    k: Any,
    format: str = "csr",
    block_size: int = 16,
    fuse_ij: bool = True,
    scale: Optional[float] = None,
    dtype: Any = None,
    tuned: bool = False,
) -> OpSpec:
    # ``None`` keeps the historical float32 default, as in prepare_batched_spmm.
    value_dtype = "float32" if dtype is None else resolve_dtype((q, k), dtype)
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
            kind="batched_sddmm", structure=csr,
            params={
                "heads": heads, "feat_size": feat,
                "fuse_ij": fuse_ij, "scale": scale, "nnz": csr.nnz,
            },
            inputs={"q": q, "k": k}, dtype=value_dtype,
            out_shape=(heads, csr.nnz), fusable=True, program_name="batched_sddmm",
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
        from .batched import bsr_element_permutation

        bsr = session.decompose_bsr(csr, block_size)
        perm_key = content_key("bsr_perm", csr.shape, csr.indptr, csr.indices, block_size)
        perm = session._memoized_format(perm_key, lambda: bsr_element_permutation(csr, bsr))
        q_pad = _pad_axis(q, axis=1, length=bsr.shape[0])
        k_pad = _pad_axis(k, axis=2, length=bsr.shape[1])
        return OpSpec(
            kind="batched_sddmm_bsr", structure=bsr,
            params={"heads": heads, "feat_size": feat, "scale": scale, "perm": perm},
            inputs={"q": q_pad, "k": k_pad}, dtype="float32",
            out_shape=(heads, csr.nnz), fusable=False, program_name="batched_sddmm_bsr",
        )
    raise ValueError(f"unknown batched-SDDMM format {format!r}; use 'csr' or 'bsr'")


def prepare_rgms(session: Any, adjacency: Any, x: Any, w: Any, tuned: bool = False) -> OpSpec:
    if _is_ref(w):
        raise ValueError("rgms weights must be constant arrays, not graph edges")
    x = _as_value(x, "float32")
    w = np.asarray(w, dtype=np.float32)
    if len(x.shape) != 2 or w.ndim != 3:
        raise ValueError("x must be (n, d_in) and w (R, d_in, d_out)")
    return OpSpec(
        kind="rgms", structure=adjacency,
        params={"in_feats": x.shape[1], "out_feats": w.shape[2],
                "rows": adjacency.shape[1], "w": w},
        inputs={"x": x}, dtype="float32",
        out_shape=(adjacency.shape[1], w.shape[2]), fusable=True, program_name="rgms",
    )


def prepare_sparse_conv(
    session: Any, problem: Any, features: Any, weights: Any, tuned: bool = False
) -> OpSpec:
    if _is_ref(weights):
        raise ValueError("sparse_conv weights must be constant arrays, not graph edges")
    features = _as_value(features, "float32")
    weights = np.asarray(weights, dtype=np.float32)
    return OpSpec(
        kind="sparse_conv", structure=problem,
        params={"w": weights},
        inputs={"features": features}, dtype="float32",
        out_shape=(problem.num_out_points, problem.out_channels),
        fusable=True, program_name="sparse_conv",
    )


def prepare_edge_softmax(
    session: Any, csr: Any, scores: Any, dtype: Any = None
) -> OpSpec:
    value_dtype = resolve_dtype(scores, dtype)
    scores = _as_value(scores, value_dtype)
    if len(scores.shape) != 2 or scores.shape[1] != csr.nnz:
        raise ValueError("scores must be (heads, nnz)")
    heads = scores.shape[0]
    return OpSpec(
        kind="edge_softmax", structure=csr,
        params={"heads": heads, "nnz": csr.nnz},
        inputs={"scores": scores}, dtype=value_dtype,
        out_shape=(heads, csr.nnz), fusable=True, program_name="edge_softmax",
    )


def prepare_batched_spmm_edges(
    session: Any, csr: Any, edge_values: Any, features: Any, dtype: Any = None
) -> OpSpec:
    value_dtype = resolve_dtype((edge_values, features), dtype)
    edge_values = _as_value(edge_values, value_dtype)
    features = _as_value(features, value_dtype)
    if len(edge_values.shape) != 2 or edge_values.shape[1] != csr.nnz:
        raise ValueError("edge_values must be (heads, nnz)")
    if len(features.shape) != 3 or features.shape[1] != csr.cols:
        raise ValueError("features must be (heads, cols, feat)")
    heads, feat = edge_values.shape[0], features.shape[2]
    return OpSpec(
        kind="batched_spmm_edges", structure=csr,
        params={"heads": heads, "feat_size": feat, "rows": csr.rows},
        inputs={"edge_values": edge_values, "features": features}, dtype=value_dtype,
        out_shape=(heads, csr.rows, feat), fusable=True, program_name="batched_spmm_edges",
    )


def prepare_gemm(session: Any, a: Any, b: Any, dtype: Any = None) -> OpSpec:
    value_dtype = resolve_dtype((a, b), dtype)
    a = _as_value(a, value_dtype)
    b = _as_value(b, value_dtype)
    if len(a.shape) != 2 or len(b.shape) != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"gemm shapes do not agree: {a.shape} @ {b.shape}")
    m, kk = a.shape
    n = b.shape[1]
    return OpSpec(
        kind="gemm", structure=None,
        params={"m": m, "k": kk, "n": n},
        inputs={"a": a, "b": b}, dtype=value_dtype,
        out_shape=(m, n), fusable=True, program_name="gemm",
    )


def prepare_add(session: Any, a: Any, b: Any, dtype: Any = None) -> OpSpec:
    value_dtype = resolve_dtype((a, b), dtype)
    a = _as_value(a, value_dtype)
    b = _as_value(b, value_dtype)
    if len(a.shape) != 2 or a.shape != b.shape:
        raise ValueError(f"add shapes do not agree: {a.shape} + {b.shape}")
    return OpSpec(
        kind="add", structure=None,
        params={"m": a.shape[0], "n": a.shape[1]},
        inputs={"a": a, "b": b}, dtype=value_dtype,
        out_shape=tuple(a.shape), fusable=True, program_name="add",
    )


def prepare_relu(session: Any, a: Any, dtype: Any = None) -> OpSpec:
    value_dtype = resolve_dtype(a, dtype)
    a = _as_value(a, value_dtype)
    if len(a.shape) != 2:
        raise ValueError("relu expects a 2-D matrix")
    return OpSpec(
        kind="relu", structure=None,
        params={"m": a.shape[0], "n": a.shape[1]},
        inputs={"a": a}, dtype=value_dtype,
        out_shape=tuple(a.shape), fusable=True, program_name="relu",
    )


PREPARE: Dict[str, Callable[..., OpSpec]] = {
    "spmm": prepare_spmm,
    "sddmm": prepare_sddmm,
    "pruned_spmm": prepare_pruned_spmm,
    "batched_spmm": prepare_batched_spmm,
    "batched_sddmm": prepare_batched_sddmm,
    "rgms": prepare_rgms,
    "sparse_conv": prepare_sparse_conv,
    "edge_softmax": prepare_edge_softmax,
    "batched_spmm_edges": prepare_batched_spmm_edges,
    "gemm": prepare_gemm,
    "add": prepare_add,
    "relu": prepare_relu,
}


def prepare(session: Any, kind: str, *args: Any, **kwargs: Any) -> OpSpec:
    """Resolve one operator application into an :class:`OpSpec`."""
    try:
        fn = PREPARE[kind]
    except KeyError:
        raise ValueError(f"unknown operator kind {kind!r}") from None
    return fn(session, *args, **kwargs)


# ---------------------------------------------------------------------------
# emit / build — OpSpec -> stage-I program
# ---------------------------------------------------------------------------

def emit_spec(
    ctx: EmitContext, spec: OpSpec, bind: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Emit the spec's iterations into *ctx*; returns buffers by logical role.

    Only valid for ``spec.fusable`` kinds.  ``bind`` maps logical input names
    to already-emitted buffers (fused producers); unbound inputs become fresh
    buffers whose data defaults are the spec's arrays (graph references bake
    no data — their values arrive as run-time bindings).
    """
    from .batched import (
        emit_batched_sddmm,
        emit_batched_spmm,
        emit_batched_spmm_edges,
        emit_edge_softmax,
    )
    from .elementwise import emit_add, emit_gemm, emit_relu
    from .rgms import emit_rgms
    from .sddmm import emit_sddmm
    from .sparse_conv import emit_sparse_conv
    from .spmm import emit_spmm

    p = spec.params
    kind = spec.kind
    if kind == "spmm":
        return emit_spmm(
            ctx, spec.structure, p["feat_size"], spec.input_array("features"),
            dtype=spec.dtype, bind=bind,
        )
    if kind == "sddmm":
        return emit_sddmm(
            ctx, spec.structure, p["feat_size"], spec.input_array("x"),
            spec.input_array("y"), fuse_ij=p["fuse_ij"], dtype=spec.dtype, bind=bind,
        )
    if kind == "batched_spmm":
        return emit_batched_spmm(
            ctx, spec.structure, p["heads"], p["feat_size"],
            spec.input_array("features"), dtype=spec.dtype, bind=bind,
        )
    if kind == "batched_sddmm":
        return emit_batched_sddmm(
            ctx, spec.structure, p["heads"], p["feat_size"],
            spec.input_array("q"), spec.input_array("k"),
            fuse_ij=p["fuse_ij"], scale=p["scale"], dtype=spec.dtype, bind=bind,
        )
    if kind == "rgms":
        return emit_rgms(
            ctx, spec.structure, p["in_feats"], p["out_feats"],
            spec.input_array("x"), p["w"], bind=bind,
        )
    if kind == "sparse_conv":
        return emit_sparse_conv(
            ctx, spec.structure, spec.input_array("features"), p["w"], bind=bind
        )
    if kind == "edge_softmax":
        return emit_edge_softmax(
            ctx, spec.structure, p["heads"], spec.input_array("scores"),
            dtype=spec.dtype, bind=bind,
        )
    if kind == "batched_spmm_edges":
        return emit_batched_spmm_edges(
            ctx, spec.structure, p["heads"], p["feat_size"],
            spec.input_array("edge_values"), spec.input_array("features"),
            dtype=spec.dtype, bind=bind,
        )
    if kind == "gemm":
        return emit_gemm(
            ctx, p["m"], p["k"], p["n"], spec.input_array("a"),
            spec.input_array("b"), dtype=spec.dtype, bind=bind,
        )
    if kind == "add":
        return emit_add(
            ctx, p["m"], p["n"], spec.input_array("a"), spec.input_array("b"),
            dtype=spec.dtype, bind=bind,
        )
    if kind == "relu":
        return emit_relu(
            ctx, p["m"], p["n"], spec.input_array("a"), dtype=spec.dtype, bind=bind
        )
    raise ValueError(f"operator kind {spec.kind!r} cannot be emitted into a shared program")


def build_spec_program(spec: OpSpec) -> Tuple[PrimFunc, Dict[str, str]]:
    """The spec's standalone program plus logical-name -> buffer-name map.

    Fusable kinds build through :func:`emit_spec` with an empty namespace, so
    the program — and therefore its structural fingerprint — is identical to
    the historical ``build_*_program`` output.

    A ``"values"`` entry names the buffer holding ``spec.structure.data``
    (where the program reads the structure's own value array), so a bound
    kernel can re-read it on every call.
    """
    if spec.fusable:
        ctx = EmitContext(ProgramBuilder(spec.program_name))
        buffers = emit_spec(ctx, spec)
        return ctx.builder.finish(), {role: buf.name for role, buf in buffers.items()}

    p = spec.params
    if spec.kind == "spmm_hyb":
        from .spmm import build_spmm_hyb_program

        func = build_spmm_hyb_program(
            spec.structure, p["feat_size"], spec.input_array("features"), dtype=spec.dtype
        )
        return func, {"out": "C", "features": "B"}
    if spec.kind == "pruned_spmm":
        from .pruned_spmm import build_pruned_spmm_bsr_program

        func = build_pruned_spmm_bsr_program(spec.structure, p["seq_len"], spec.input_array("x"))
        return func, {"out": "Y", "x": "X", "values": "W"}
    if spec.kind == "batched_spmm_bsr":
        from .batched import build_batched_spmm_bsr_program

        func = build_batched_spmm_bsr_program(
            spec.structure, p["heads"], p["feat_size"], spec.input_array("features")
        )
        return func, {"out": "C", "features": "B"}
    if spec.kind == "batched_sddmm_bsr":
        from .batched import build_batched_sddmm_bsr_program

        func = build_batched_sddmm_bsr_program(
            spec.structure, p["heads"], p["feat_size"],
            spec.input_array("q"), spec.input_array("k"), scale=p["scale"],
        )
        return func, {"out": "OUT", "q": "Q", "k": "Kv"}
    raise ValueError(f"unknown operator kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# finalize — raw flat output -> documented output array
# ---------------------------------------------------------------------------

def finalize(spec: OpSpec, flat: np.ndarray) -> np.ndarray:
    """Reshape/slice the operator's raw flat output buffer."""
    p = spec.params
    kind = spec.kind
    if kind in ("spmm", "spmm_hyb"):
        return flat.reshape(p["rows"], p["feat_size"])
    if kind == "sddmm":
        return flat.reshape(-1)[: p["nnz"]]
    if kind == "pruned_spmm":
        return flat.reshape(p["out_rows"], p["seq_len"])
    if kind == "batched_spmm":
        return flat.reshape(p["heads"], p["rows"], p["feat_size"])
    if kind == "batched_spmm_bsr":
        return flat.reshape(p["heads"], p["padded_rows"], p["feat_size"])[:, : p["rows"]]
    if kind == "batched_sddmm":
        return flat.reshape(p["heads"], -1)[:, : p["nnz"]]
    if kind == "batched_sddmm_bsr":
        return flat.reshape(p["heads"], -1)[:, p["perm"]]
    if kind in ("rgms", "sparse_conv", "gemm", "add", "relu",
                "edge_softmax", "batched_spmm_edges"):
        return flat.reshape(spec.out_shape)
    raise ValueError(f"unknown operator kind {kind!r}")


__all__ = [
    "OpSpec", "prepare", "PREPARE", "emit_spec", "build_spec_program", "finalize",
    "csr_structure_key", "csf_structure_key", "conv_structure_key",
]
