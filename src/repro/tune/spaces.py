"""Per-workload search spaces over composable format decompositions.

This is the registry the format autoscheduler drives: every paper workload
(SpMM, SDDMM, batched multi-head attention, RGMS, sparse convolution — plus
the pruned-weight SpMM family that exercises the bsr/dbsr/srbcrs corner of
the format zoo) contributes one :class:`WorkloadSpec` describing

* its **search space** — a :class:`~repro.tune.search_space.ParameterSpace`
  enumerating composable decompositions (formats, bucket counts, block
  shapes) joint with schedule parameters (threads per block, vector widths);
* a **predict** function mapping a configuration to the analytic
  :class:`~repro.sim.workload.KernelWorkload` the GPU cost model prices —
  the cheap phase-1 objective that prunes the space.  It decomposes hyb / BSR
  through the session phase 2 measures with, so a survivor's first run finds
  its format memoised; what the session has no memo for (SR-BCRS) lives in
  the ``memo`` dict of one search;
* a **run** function executing one operator call through a
  :class:`~repro.runtime.session.Session` with the configuration's
  execution-relevant parameters applied — the phase-2 wallclock objective
  measured on the cached emitted-kernel tier;
* a structural **fingerprint** of the problem, keying persistent
  :class:`~repro.tune.records.TuningRecord` entries.

Configurations mix *execution* parameters (``exec_keys`` — they change which
kernel runs: format choice, partition/bucket counts, block sizes, loop
fusion) with *model-only* schedule parameters (they change the predicted GPU
cost but not the NumPy execution).  ``canonical`` maps a configuration to its
behavioural identity — inert parameters pinned to their first candidate — so
search strategies never price or measure the same candidate twice.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from ..formats.csr import CSRMatrix
from ..formats.dbsr import DBSRMatrix
from ..formats.srbcrs import SRBCRSMatrix
from ..sim import ops as sim_ops
from ..sim.device import DeviceSpec
from ..sim.workload import KernelWorkload
from .search_space import Choice, ParameterSpace


class InfeasibleConfig(Exception):
    """Raised by ``predict`` when a configuration cannot apply to the problem."""


# ---------------------------------------------------------------------------
# Problem descriptions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpMMProblem:
    """``A @ X`` with a sparse ``A`` and a dense ``(cols, feat_size)`` operand."""

    csr: CSRMatrix
    feat_size: int


@dataclass(frozen=True)
class SDDMMProblem:
    """Sampled dense-dense matmul at the non-zeros of ``csr``."""

    csr: CSRMatrix
    feat_size: int


@dataclass(frozen=True)
class AttentionProblem:
    """Multi-head sparse attention: SDDMM + SpMM per head over one mask."""

    csr: CSRMatrix
    num_heads: int
    feat_size: int


@dataclass(frozen=True)
class PrunedSpMMProblem:
    """``W @ X`` with block/unstructured-pruned weights ``W`` (csr source)."""

    csr: CSRMatrix
    seq_len: int


def _content_digest(*parts: Any) -> str:
    """A stable sha256 over structural arrays and scalar shape parameters."""
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            arr = np.ascontiguousarray(part)
            digest.update(str(arr.dtype).encode())
            digest.update(str(arr.shape).encode())
            digest.update(arr.tobytes())
        else:
            digest.update(repr(part).encode())
        digest.update(b"|")
    return digest.hexdigest()


def _csr_parts(csr: CSRMatrix) -> Tuple:
    """Structural identity of a CSR matrix: sparsity pattern, never values.

    Matches the kernel cache's discipline — a matrix whose edge *weights*
    change between epochs keeps its tuning record, because every registered
    decomposition depends only on the sparsity structure.
    """
    return (csr.shape, csr.indptr, csr.indices)


# ---------------------------------------------------------------------------
# The workload registry
# ---------------------------------------------------------------------------

def _identity_canonical(config: Dict[str, Any]) -> Dict[str, Any]:
    return dict(config)


def _always_measurable(config: Dict[str, Any]) -> bool:
    return True


@dataclass(frozen=True)
class WorkloadSpec:
    """One tunable workload family: space, cost model hook, runtime hook."""

    name: str
    space: Callable[[Any], ParameterSpace]
    predict: Callable[[Any, Dict[str, Any], DeviceSpec, Any, Dict], KernelWorkload]
    make_inputs: Callable[[Any, np.random.Generator], Dict[str, np.ndarray]]
    run: Callable[[Any, Any, Dict[str, Any], Dict[str, np.ndarray]], np.ndarray]
    fingerprint_parts: Callable[[Any], Tuple]
    exec_keys: Tuple[str, ...] = ()
    canonical: Callable[[Dict[str, Any]], Dict[str, Any]] = field(
        default=_identity_canonical
    )
    measurable: Callable[[Dict[str, Any]], bool] = field(default=_always_measurable)
    version: int = 1

    def exec_config(self, config: Dict[str, Any]) -> Dict[str, Any]:
        """The execution-relevant projection of one configuration."""
        canonical = self.canonical(config)
        return {key: canonical[key] for key in self.exec_keys if key in canonical}


_REGISTRY: Dict[str, WorkloadSpec] = {}


def register_workload(spec: WorkloadSpec) -> WorkloadSpec:
    if spec.name in _REGISTRY:
        raise ValueError(f"workload {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_workload(name: str) -> WorkloadSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def available_workloads() -> List[str]:
    return sorted(_REGISTRY)


# ---------------------------------------------------------------------------
# SpMM: csr vs hyb(c, k) — the Figure 13 joint format/schedule space
# ---------------------------------------------------------------------------

def _spmm_space(problem: SpMMProblem) -> ParameterSpace:
    return ParameterSpace(
        [
            Choice("format", ("csr", "hyb")),
            Choice("num_col_parts", (1, 2, 4, 8, 16)),
            Choice("num_buckets", (None, 2, 3, 4, 5)),
            Choice("threads_per_block", (64, 128, 256)),
        ]
    )


def _spmm_canonical(config: Dict[str, Any]) -> Dict[str, Any]:
    canonical = dict(config)
    if canonical.get("format") == "csr":
        canonical["num_col_parts"] = 1
        canonical["num_buckets"] = None
    return canonical


def _spmm_predict(
    problem: SpMMProblem, config: Dict[str, Any], device: DeviceSpec, session, memo: Dict
) -> KernelWorkload:
    if config["format"] == "csr":
        return sim_ops.spmm.spmm_csr_workload(
            problem.csr,
            problem.feat_size,
            device,
            threads_per_block=config["threads_per_block"],
        )
    hyb = session.decompose_hyb(
        problem.csr, num_col_parts=config["num_col_parts"], num_buckets=config["num_buckets"]
    )
    return sim_ops.spmm.spmm_hyb_workload(
        hyb, problem.feat_size, device, threads_per_block=config["threads_per_block"]
    )


def _spmm_inputs(problem: SpMMProblem, rng: np.random.Generator) -> Dict[str, np.ndarray]:
    return {
        "features": rng.standard_normal(
            (problem.csr.cols, problem.feat_size)
        ).astype(np.float32)
    }


def _spmm_run(session, problem: SpMMProblem, config: Dict[str, Any], inputs) -> np.ndarray:
    return session.spmm(
        problem.csr,
        inputs["features"],
        format=config["format"],
        num_col_parts=config["num_col_parts"],
        num_buckets=config["num_buckets"],
    )


register_workload(
    WorkloadSpec(
        name="spmm",
        space=_spmm_space,
        predict=_spmm_predict,
        make_inputs=_spmm_inputs,
        run=_spmm_run,
        fingerprint_parts=lambda p: ("spmm", p.feat_size, *_csr_parts(p.csr)),
        exec_keys=("format", "num_col_parts", "num_buckets"),
        canonical=_spmm_canonical,
    )
)


# ---------------------------------------------------------------------------
# SDDMM: fused edge loop + schedule parameters (Figure 14)
# ---------------------------------------------------------------------------

def _sddmm_space(problem: SDDMMProblem) -> ParameterSpace:
    return ParameterSpace(
        [
            Choice("fuse_ij", (True, False)),
            Choice("nnz_per_block", (16, 32, 64, 128)),
            Choice("threads_per_block", (128, 256, 512)),
            Choice("vector_width", (1, 2, 4)),
        ]
    )


def _sddmm_predict(
    problem: SDDMMProblem, config: Dict[str, Any], device: DeviceSpec, session, memo: Dict
) -> KernelWorkload:
    # The unfused (i, j) loop loses the balanced edge-slice mapping and with
    # it the two-stage reduction, which is how the model prices fuse_ij.
    return sim_ops.sddmm.sddmm_workload(
        problem.csr,
        problem.feat_size,
        device,
        nnz_per_block=config["nnz_per_block"],
        threads_per_block=config["threads_per_block"],
        vector_width=config["vector_width"],
        two_stage_reduction=config["fuse_ij"],
    )


def _sddmm_inputs(problem: SDDMMProblem, rng: np.random.Generator) -> Dict[str, np.ndarray]:
    return {
        "x": rng.standard_normal((problem.csr.rows, problem.feat_size)).astype(np.float32),
        "y": rng.standard_normal((problem.feat_size, problem.csr.cols)).astype(np.float32),
    }


def _sddmm_run(session, problem: SDDMMProblem, config: Dict[str, Any], inputs) -> np.ndarray:
    return session.sddmm(problem.csr, inputs["x"], inputs["y"], fuse_ij=config["fuse_ij"])


register_workload(
    WorkloadSpec(
        name="sddmm",
        space=_sddmm_space,
        predict=_sddmm_predict,
        make_inputs=_sddmm_inputs,
        run=_sddmm_run,
        fingerprint_parts=lambda p: ("sddmm", p.feat_size, *_csr_parts(p.csr)),
        exec_keys=("fuse_ij",),
    )
)


# ---------------------------------------------------------------------------
# Batched multi-head attention: csr vs bsr(block_size) (Figure 16)
# ---------------------------------------------------------------------------

def _attention_space(problem: AttentionProblem) -> ParameterSpace:
    return ParameterSpace(
        [
            Choice("format", ("csr", "bsr")),
            Choice("block_size", (8, 16, 32)),
        ]
    )


def _attention_canonical(config: Dict[str, Any]) -> Dict[str, Any]:
    canonical = dict(config)
    if canonical.get("format") == "csr":
        canonical["block_size"] = 8
    return canonical


def _attention_predict(
    problem: AttentionProblem, config: Dict[str, Any], device: DeviceSpec, session, memo: Dict
) -> KernelWorkload:
    if config["format"] == "csr":
        sddmm = sim_ops.batched.batched_sddmm_csr_workload(
            problem.csr, problem.feat_size, problem.num_heads, device
        )
        spmm = sim_ops.batched.batched_spmm_csr_workload(
            problem.csr, problem.feat_size, problem.num_heads, device
        )
    else:
        bsr = session.decompose_bsr(problem.csr, config["block_size"])
        if bsr.num_blocks == 0:
            raise InfeasibleConfig("empty block decomposition")
        if bsr.nnz_stored != problem.csr.nnz:
            # The per-block SDDMM scores every element of a stored block, so
            # the decomposition is only exact for block-aligned masks (the
            # paper's band/butterfly structures).
            raise InfeasibleConfig(
                f"mask is not block-aligned at block_size={config['block_size']}"
            )
        sddmm = sim_ops.batched.batched_sddmm_bsr_workload(
            bsr, problem.feat_size, problem.num_heads, device
        )
        spmm = sim_ops.batched.batched_spmm_bsr_workload(
            bsr, problem.feat_size, problem.num_heads, device
        )
    return sddmm.merged(spmm, name=f"attention_{config['format']}")


def _attention_inputs(
    problem: AttentionProblem, rng: np.random.Generator
) -> Dict[str, np.ndarray]:
    h, d = problem.num_heads, problem.feat_size
    return {
        "q": rng.standard_normal((h, problem.csr.rows, d)).astype(np.float32),
        "k": rng.standard_normal((h, d, problem.csr.cols)).astype(np.float32),
        "v": rng.standard_normal((h, problem.csr.cols, d)).astype(np.float32),
    }


def _attention_run(
    session, problem: AttentionProblem, config: Dict[str, Any], inputs
) -> np.ndarray:
    scores = session.batched_sddmm(
        problem.csr,
        inputs["q"],
        inputs["k"],
        format=config["format"],
        block_size=config["block_size"],
    )
    out = session.batched_spmm(
        problem.csr,
        inputs["v"],
        format=config["format"],
        block_size=config["block_size"],
    )
    return np.concatenate([scores.reshape(-1), out.reshape(-1)])


register_workload(
    WorkloadSpec(
        name="attention",
        space=_attention_space,
        predict=_attention_predict,
        make_inputs=_attention_inputs,
        run=_attention_run,
        fingerprint_parts=lambda p: (
            "attention", p.num_heads, p.feat_size, *_csr_parts(p.csr),
        ),
        exec_keys=("format", "block_size"),
        canonical=_attention_canonical,
    )
)


# ---------------------------------------------------------------------------
# RGMS: fused-hyb vs naive vs two-stage strategies (Figure 20)
# ---------------------------------------------------------------------------

def _rgms_space(problem) -> ParameterSpace:
    return ParameterSpace(
        [
            Choice("strategy", ("fused_hyb", "naive", "two_stage")),
            Choice("num_buckets", (3, 4, 5)),
            Choice("rows_per_block", (8, 16, 32)),
        ]
    )


def _rgms_canonical(config: Dict[str, Any]) -> Dict[str, Any]:
    canonical = dict(config)
    if canonical.get("strategy") != "fused_hyb":
        canonical["num_buckets"] = 3
        canonical["rows_per_block"] = 8
    return canonical


def _rgms_predict(problem, config: Dict[str, Any], device: DeviceSpec, session, memo: Dict):
    if config["strategy"] == "fused_hyb":
        widths = tuple(2 ** i for i in range(config["num_buckets"]))
        return sim_ops.rgms.rgms_fused_hyb_workload(
            problem,
            device,
            bucket_widths=widths,
            rows_per_block=config["rows_per_block"],
        )
    if config["strategy"] == "naive":
        return sim_ops.rgms.rgms_naive_workload(problem, device)
    return sim_ops.rgms.rgms_two_stage_workload(problem, device)


def _rgms_inputs(problem, rng: np.random.Generator) -> Dict[str, np.ndarray]:
    n, r = problem.num_nodes, problem.num_relations
    return {
        "x": rng.standard_normal((n, problem.in_feats)).astype(np.float32),
        "w": rng.standard_normal((r, problem.in_feats, problem.out_feats)).astype(
            np.float32
        ),
    }


def _rgms_run(session, problem, config: Dict[str, Any], inputs) -> np.ndarray:
    return session.rgms(problem.adjacency, inputs["x"], inputs["w"])


def _rgms_fingerprint(problem) -> Tuple:
    parts: List[Any] = ["rgms", problem.in_feats, problem.out_feats, problem.adjacency.shape]
    for matrix in problem.adjacency.slices:
        if matrix is None:
            parts.append("empty")
        else:
            parts.extend(_csr_parts(matrix))
    return tuple(parts)


register_workload(
    WorkloadSpec(
        name="rgms",
        space=_rgms_space,
        predict=_rgms_predict,
        make_inputs=_rgms_inputs,
        run=_rgms_run,
        fingerprint_parts=_rgms_fingerprint,
        exec_keys=(),
        canonical=_rgms_canonical,
    )
)


# ---------------------------------------------------------------------------
# Sparse convolution: fused TC vs gather-GEMM-scatter (Figure 23)
# ---------------------------------------------------------------------------

def _sparse_conv_space(problem) -> ParameterSpace:
    return ParameterSpace(
        [
            Choice("strategy", ("fused_tc", "gather_gemm_scatter")),
            Choice("pairs_per_block", (32, 64, 128)),
        ]
    )


def _sparse_conv_canonical(config: Dict[str, Any]) -> Dict[str, Any]:
    canonical = dict(config)
    if canonical.get("strategy") != "fused_tc":
        canonical["pairs_per_block"] = 32
    return canonical


def _sparse_conv_predict(
    problem, config: Dict[str, Any], device: DeviceSpec, session, memo: Dict
):
    if config["strategy"] == "fused_tc":
        return sim_ops.sparse_conv.sparse_conv_fused_tc_workload(
            problem, device, pairs_per_block=config["pairs_per_block"]
        )
    return sim_ops.sparse_conv.sparse_conv_gather_gemm_scatter_workload(problem, device)


def _sparse_conv_inputs(problem, rng: np.random.Generator) -> Dict[str, np.ndarray]:
    return {
        "features": rng.standard_normal(
            (problem.num_in_points, problem.in_channels)
        ).astype(np.float32),
        "weights": rng.standard_normal(
            (problem.kernel_volume, problem.in_channels, problem.out_channels)
        ).astype(np.float32),
    }


def _sparse_conv_run(session, problem, config: Dict[str, Any], inputs) -> np.ndarray:
    return session.sparse_conv(problem, inputs["features"], inputs["weights"])


def _sparse_conv_fingerprint(problem) -> Tuple:
    parts: List[Any] = [
        "sparse_conv",
        problem.num_in_points,
        problem.num_out_points,
        problem.in_channels,
        problem.out_channels,
    ]
    for pairs in problem.kernel_maps:
        parts.append(np.asarray(pairs, dtype=np.int64))
    return tuple(parts)


register_workload(
    WorkloadSpec(
        name="sparse_conv",
        space=_sparse_conv_space,
        predict=_sparse_conv_predict,
        make_inputs=_sparse_conv_inputs,
        run=_sparse_conv_run,
        fingerprint_parts=_sparse_conv_fingerprint,
        exec_keys=(),
        canonical=_sparse_conv_canonical,
    )
)


# ---------------------------------------------------------------------------
# Pruned-weight SpMM: bsr vs dbsr vs srbcrs (Figures 17 and 19)
# ---------------------------------------------------------------------------

def _pruned_space(problem: PrunedSpMMProblem) -> ParameterSpace:
    return ParameterSpace(
        [
            Choice("format", ("bsr", "dbsr", "srbcrs")),
            Choice("block_size", (16, 32)),
            Choice("tile_rows", (4, 8)),
            Choice("group_size", (2, 4)),
        ]
    )


def _pruned_canonical(config: Dict[str, Any]) -> Dict[str, Any]:
    canonical = dict(config)
    if canonical.get("format") == "srbcrs":
        canonical["block_size"] = 16
    else:
        canonical["tile_rows"] = 4
        canonical["group_size"] = 2
    return canonical


def _pruned_predict(
    problem: PrunedSpMMProblem, config: Dict[str, Any], device: DeviceSpec, session, memo: Dict
) -> KernelWorkload:
    fmt, priced = config["format"], sim_ops.pruned_spmm
    if fmt == "srbcrs":
        key = ("srbcrs", config["tile_rows"], config["group_size"])
        if key not in memo:
            memo[key] = SRBCRSMatrix(problem.csr, config["tile_rows"], config["group_size"])
        return priced.pruned_spmm_srbcrs_workload(memo[key], problem.seq_len, device)
    bsr = session.decompose_bsr(problem.csr, config["block_size"])
    if fmt == "bsr":
        return priced.pruned_spmm_bsr_workload(bsr, problem.seq_len, device)
    return priced.pruned_spmm_dbsr_workload(DBSRMatrix.from_bsr(bsr), problem.seq_len, device)


def _pruned_inputs(
    problem: PrunedSpMMProblem, rng: np.random.Generator
) -> Dict[str, np.ndarray]:
    return {
        "x": rng.standard_normal((problem.csr.cols, problem.seq_len)).astype(np.float32)
    }


def _pruned_run(
    session, problem: PrunedSpMMProblem, config: Dict[str, Any], inputs
) -> np.ndarray:
    bsr = session.decompose_bsr(problem.csr, config["block_size"])
    x = inputs["x"]
    if bsr.shape[1] != x.shape[0]:
        pad = np.zeros((bsr.shape[1] - x.shape[0], x.shape[1]), dtype=np.float32)
        x = np.vstack([x, pad])
    return session.pruned_spmm(bsr, x)[: problem.csr.rows]


register_workload(
    WorkloadSpec(
        name="pruned_spmm",
        space=_pruned_space,
        predict=_pruned_predict,
        make_inputs=_pruned_inputs,
        run=_pruned_run,
        fingerprint_parts=lambda p: ("pruned_spmm", p.seq_len, *_csr_parts(p.csr)),
        exec_keys=("format", "block_size"),
        canonical=_pruned_canonical,
        # Only the plain BSR decomposition has an executable program today;
        # dbsr/srbcrs candidates are ranked by the cost model alone.
        measurable=lambda config: config["format"] == "bsr",
    )
)


def task_fingerprint(spec: WorkloadSpec, problem: Any) -> str:
    """The structural fingerprint keying one workload/problem tuning task.

    The digest covers the workload name and spec version, the search space
    itself (a changed space invalidates old records) and the problem's
    structural arrays — never the dense operand values, which are rebound per
    run exactly as in the kernel cache.
    """
    space = spec.space(problem)
    space_repr = [(c.name, c.values) for c in space.choices]
    return _content_digest(
        "task", spec.name, spec.version, space_repr, *spec.fingerprint_parts(problem)
    )
