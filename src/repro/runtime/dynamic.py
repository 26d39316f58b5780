"""Base-plan + row-patch execution for mutated sparse structures.

Re-lowering a kernel per edit would erase the point of O(delta) updates, so
a :class:`~repro.formats.csr.CSRMatrix` with a pending delta executes its
*frozen base snapshot* through the warm bound kernel and patches the delta's
effect on top:

* **SpMM** rows are row-local (``out[i, k]`` sums row ``i``'s edges in
  ascending-column order), so only the rows the delta touched are recomputed
  and overwritten — by a *second call of the base snapshot's own CSR kernel*,
  fed the touched rows' content (:meth:`~repro.formats.csr.CSRMatrix.row_patch`,
  padded to the base's footprint) as that call's index tables and values.
  Same shared object, sizes and accumulation order; no fingerprint, lowering
  or cache entry.  Where the kernel is not on the native tier (no toolchain)
  the same patch arrays are replayed in NumPy.
* **SDDMM** scores are edge-local: surviving base scores scatter into their
  merged positions and only inserted edges are scored fresh (serial
  ascending-``k`` accumulation in the kernel's ``(a * x) * y`` association).

Both are **bit-exact** with a cold rebuild from the final edge set (the
edit-script conformance suite in ``tests/test_dynamic.py``).  After
re-compaction the next call fingerprints the new base and runs plain.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .keys import resolve_dtype


def _padded(array: np.ndarray, size: int, dtype: Any) -> np.ndarray:
    out = np.zeros(size, dtype=dtype)
    out[: array.size] = array
    return out


def _patched_rows(session: Any, base: Any, patch: Any, features: Any, dtype: Any) -> np.ndarray:
    """``A @ X`` restricted to the patch's rows, in the base kernel's arithmetic."""
    rows, indptr, indices, values = patch
    # The lowered programs keep their index tables in int32.
    tables = {
        "indptr": indptr.astype(np.int32),
        "indices": _padded(indices, base.nnz, np.int32),
        "values": _padded(values, base.nnz, values.dtype),
    }
    out = session._execute(
        "spmm", base, {"features": features}, tables=tables, format="csr",
        num_col_parts=1, num_buckets=None, dtype=dtype, tuned=False,
    )
    if out is not None:
        return out[rows]
    # No native kernel to feed: per output element the edge products arrive
    # in ascending-column order through one unbuffered ``np.add.at``.
    value_dtype = resolve_dtype((features, base), dtype)
    acc = np.zeros((rows.size, features.shape[1]), dtype=value_dtype)
    values, features = (array.astype(value_dtype, copy=False) for array in (values, features))
    local_rows = np.repeat(np.arange(rows.size), np.diff(indptr)[rows])
    np.add.at(acc, local_rows, values[:, None] * features[indices])
    return acc


def overlay_spmm(
    session: Any, csr: Any, features: Any, dtype: Any = None, tuned: bool = False, **plan: Any
) -> np.ndarray:
    """``A @ X`` for a matrix with a pending delta: base plan + row patch.

    *plan* is ``format`` / ``num_col_parts`` / ``num_buckets`` as given to
    :meth:`Session.spmm`.  Tuned overrides are resolved against the *mutated*
    matrix (this is where the session's drift threshold decides between
    reusing the stale-but-close plan and triggering a re-tune); the base
    snapshot then executes with ``tuned=False`` so its warm kernel and
    decomposition are reused unconditionally.  Whatever the base plan's
    format, the patch runs through the base snapshot's CSR kernel.
    """
    features = np.asarray(features)
    base, patch = csr.base_view(), csr.row_patch()
    if patch[2].size > base.nnz:
        # The patch outgrew the base's footprint: the overlay stopped paying.
        return session.spmm(csr.compact(), features, dtype=dtype, tuned=tuned, **plan)
    if tuned:
        from ..tune.spaces import SpMMProblem

        overrides = session._tuned_overrides("spmm", SpMMProblem(csr, int(features.shape[1])))
        plan = {name: overrides.get(name, given) for name, given in plan.items()}
    out = session.spmm(base, features, dtype=dtype, tuned=False, **plan)
    with session.stats.lock:
        session.stats.overlay_runs += 1
    out[patch[0]] = _patched_rows(session, base, patch, features, dtype)
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
    value_dtype = resolve_dtype((x, y, csr), dtype)
    if tuned:
        from ..tune.spaces import SDDMMProblem

        overrides = session._tuned_overrides("sddmm", SDDMMProblem(csr, int(x.shape[1])))
        fuse_ij = overrides.get("fuse_ij", fuse_ij)
    base_scores = session.sddmm(csr.base_view(), x, y, fuse_ij=fuse_ij, dtype=dtype, tuned=False)
    with session.stats.lock:
        session.stats.overlay_runs += 1
    merged = csr._merged_view()
    out = np.zeros(len(merged.indices), dtype=value_dtype)
    out[merged.base_positions] = base_scores[merged.kept_mask]
    inserted = merged.delta_positions
    vals = merged.data[inserted].astype(value_dtype, copy=False)
    xq = x.astype(value_dtype, copy=False)[merged.delta_rows]
    yk = y.astype(value_dtype, copy=False)[:, merged.indices[inserted]]
    products = (vals[:, None] * xq) * yk.T
    scores = np.zeros(inserted.size, dtype=value_dtype)
    np.add.at(scores, np.repeat(np.arange(inserted.size), products.shape[1]), products.ravel())
    out[inserted] = scores
    return out
