"""Base-plan + delta-overlay execution for mutated sparse structures.

When a :class:`~repro.formats.csr.CSRMatrix` carries a pending delta
(:attr:`~repro.formats.csr.CSRMatrix.has_pending_delta`), re-lowering a
kernel for the mutated structure per edit would erase the point of O(delta)
updates.  Instead the session executes the *frozen base snapshot* through
its warm cached kernel and patches the delta's effect on top:

* **SpMM** output rows are row-local (``out[i, k]`` only sums row ``i``'s
  edges in ascending-column order), so the overlay recomputes just the
  *affected rows* from the effective arrays with ``np.add.at`` — the same
  unbuffered, serial, ascending-``j`` accumulation the generated kernels
  use — and overwrites them in the base result.
* **SDDMM** edge scores are edge-local, so surviving base scores scatter
  into their merged positions and only inserted edges are computed fresh
  (serial ascending-``k`` accumulation, matching the kernel's
  ``(a * x) * y`` association).

Both overlays are **bit-exact** with a cold rebuild from the final edge set
(asserted by the edit-script conformance suite in
``tests/test_dynamic.py``): same value dtype, same products, same
floating-point accumulation order.  Once the matrix re-compacts, the next
execution re-fingerprints the new base and the overlay disappears until the
next mutation.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from .keys import resolve_dtype


def _affected_row_update(merged, features: np.ndarray, value_dtype: str) -> np.ndarray:
    """Recompute ``A @ X`` for the merged view's affected rows only.

    Replicates the kernel's accumulation exactly: per output element the
    edge products arrive in ascending-column order through one unbuffered
    ``np.add.at``.
    """
    from ..core.nputils import ragged_arange

    rows = merged.affected_rows
    starts = merged.indptr[rows]
    counts = merged.indptr[rows + 1] - starts
    edge_positions = np.repeat(starts, counts) + ragged_arange(counts)
    local_rows = np.repeat(np.arange(rows.size, dtype=np.int64), counts)
    cols = merged.indices[edge_positions]
    vals = merged.data[edge_positions].astype(value_dtype, copy=False)
    acc = np.zeros((rows.size, features.shape[1]), dtype=value_dtype)
    np.add.at(acc, local_rows, vals[:, None] * features[cols])
    return acc


def overlay_spmm(
    session: Any,
    csr: Any,
    features: np.ndarray,
    format: str = "csr",
    num_col_parts: int = 1,
    num_buckets: Optional[int] = None,
    dtype: Any = None,
    tuned: bool = False,
) -> np.ndarray:
    """``A @ X`` for a matrix with a pending delta: base plan + row patch.

    Tuned overrides are resolved against the *mutated* matrix (this is
    where the session's drift threshold decides between reusing the
    stale-but-close plan and triggering a re-tune); the base snapshot then
    executes with ``tuned=False`` so its warm kernel and decomposition are
    reused unconditionally.
    """
    features = np.asarray(features)
    value_dtype = resolve_dtype((features, csr.data), dtype)
    if tuned:
        from ..tune.spaces import SpMMProblem

        overrides = session._tuned_overrides("spmm", SpMMProblem(csr, int(features.shape[1])))
        format = overrides.get("format", format)
        num_col_parts = overrides.get("num_col_parts", num_col_parts)
        num_buckets = overrides.get("num_buckets", num_buckets)
    out = session.spmm(
        csr.base_view(), features, format=format, num_col_parts=num_col_parts,
        num_buckets=num_buckets, dtype=value_dtype, tuned=False,
    )
    with session.stats.lock:
        session.stats.overlay_runs += 1
    merged = csr._merged_view()
    if merged.affected_rows.size:
        feats = features.astype(value_dtype, copy=False)
        out[merged.affected_rows] = _affected_row_update(merged, feats, value_dtype)
    return out


def overlay_sddmm(
    session: Any,
    csr: Any,
    x: np.ndarray,
    y: np.ndarray,
    fuse_ij: bool = True,
    dtype: Any = None,
    tuned: bool = False,
) -> np.ndarray:
    """SDDMM for a matrix with a pending delta: base plan + edge patch.

    Surviving base edges keep their base-plan scores (edge scores are
    independent, so they are bitwise identical); inserted edges are scored
    with the kernel's exact per-edge recurrence
    ``out[e] += (a[e] * x[i, k]) * y[k, j]`` over ascending ``k``.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    value_dtype = resolve_dtype((x, y, csr.data), dtype)
    if tuned:
        from ..tune.spaces import SDDMMProblem

        overrides = session._tuned_overrides("sddmm", SDDMMProblem(csr, int(x.shape[1])))
        fuse_ij = overrides.get("fuse_ij", fuse_ij)
    base_scores = session.sddmm(
        csr.base_view(), x, y, fuse_ij=fuse_ij, dtype=value_dtype, tuned=False
    )
    with session.stats.lock:
        session.stats.overlay_runs += 1
    merged = csr._merged_view()
    out = np.zeros(len(merged.indices), dtype=value_dtype)
    out[merged.base_positions] = base_scores[merged.kept_mask]
    inserted = merged.delta_positions
    if inserted.size:
        rows = merged.delta_rows
        cols = merged.indices[inserted]
        vals = merged.data[inserted].astype(value_dtype, copy=False)
        xq = x.astype(value_dtype, copy=False)
        yk = y.astype(value_dtype, copy=False)
        products = (vals[:, None] * xq[rows]) * yk[:, cols].T
        scores = np.zeros(inserted.size, dtype=value_dtype)
        np.add.at(
            scores,
            np.repeat(np.arange(inserted.size, dtype=np.int64), products.shape[1]),
            products.ravel(),
        )
        out[inserted] = scores
    return out
