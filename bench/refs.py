"""Independent references: SciPy / NumPy only, nothing from the compiler.

Each function takes plain arrays (or a SciPy matrix built once in set-up)
and returns what the operator under test should return.  They are what a
user without this compiler would write against the vendor library, so
``ours / reference`` is the paper's "next to a vendor library on the same
machine" comparison.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np
import scipy.sparse as sp


def tolerance(dtype: Any) -> dict:
    """rtol/atol for comparing against a reference in *dtype*.

    Sums are accumulated in another order than the kernels use, so float32
    results differ in the last digits; atol covers near-cancelling sums.
    """
    if np.dtype(dtype) == np.float64:
        return {"rtol": 1e-10, "atol": 1e-11}
    return {"rtol": 1e-4, "atol": 1e-4}


def close(ours: Any, ref: Any, dtype: Any = np.float32) -> bool:
    if ours is None:
        return False
    ours = np.asarray(ours)
    ref = np.asarray(ref)
    return ours.shape == ref.shape and bool(np.allclose(ours, ref, **tolerance(dtype)))


def to_scipy(csr: Any, dtype: Any) -> sp.csr_matrix:
    """A SciPy CSR copy of a CSRMatrix's arrays in the compute dtype."""
    return sp.csr_matrix(
        (np.asarray(csr.data, dtype=dtype), np.asarray(csr.indices), np.asarray(csr.indptr)),
        shape=csr.shape,
    )


def edge_rows(indptr: np.ndarray) -> np.ndarray:
    return np.repeat(np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr))


def sddmm(data: np.ndarray, rows: np.ndarray, cols: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gathered row-dot: ``data[e] * <x[row_e, :], y[:, col_e]>``."""
    return data * np.einsum("ek,ek->e", x[rows], y.T[cols])


def batched_spmm(a: sp.spmatrix, features: np.ndarray) -> np.ndarray:
    """Per-head loop over the vendor SpMM."""
    return np.stack([a @ features[h] for h in range(features.shape[0])])


def batched_sddmm(data, rows, cols, q: np.ndarray, k: np.ndarray) -> np.ndarray:
    return np.stack([sddmm(data, rows, cols, q[h], k[h]) for h in range(q.shape[0])])


def edge_softmax(indptr: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax over stored edges via ``reduceat`` (no max shift,
    matching the operator's definition)."""
    lengths = np.diff(indptr)
    filled = lengths > 0
    e = np.exp(scores)
    sums = np.ones((scores.shape[0], len(lengths)), dtype=scores.dtype)
    sums[:, filled] = np.add.reduceat(e, indptr[:-1][filled], axis=1)
    return e / np.repeat(sums, lengths, axis=1)


def attention(a_pattern: sp.csr_matrix, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Masked multi-head attention: SDDMM, edge softmax, SpMM per head."""
    indptr, cols = a_pattern.indptr, a_pattern.indices
    rows = edge_rows(indptr)
    scale = np.float32(1.0 / np.sqrt(q.shape[-1]))
    out = []
    for h in range(q.shape[0]):
        scores = (a_pattern.data * np.einsum("ek,ek->e", q[h][rows], k[h][cols])) * scale
        weights = edge_softmax(indptr, scores[None, :])[0]
        out.append(sp.csr_matrix((weights, cols, indptr), shape=a_pattern.shape) @ v[h])
    return np.stack(out)


def rgms(relations: Sequence[sp.csr_matrix], x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Relational gather-matmul-scatter: ``sum_r A_r @ (X @ W_r)``."""
    return sum(a @ (x @ weights[r]) for r, a in enumerate(relations))


def rgcn(relations: Sequence[sp.csr_matrix], layers: Sequence[tuple], x: np.ndarray) -> np.ndarray:
    """Two-layer RGCN: ``sum_r A_r @ (X @ W_r) + X @ W_self``, ReLU between."""
    out = x
    for index, (relation_weights, self_weight) in enumerate(layers):
        acc = out @ self_weight
        for a, w in zip(relations, relation_weights):
            if a.nnz:
                acc = acc + a @ (out @ w)
        out = np.maximum(acc, 0) if index < len(layers) - 1 else acc
    return out


def sparse_conv_stack(layers: Sequence[tuple], x: np.ndarray) -> np.ndarray:
    """Gather-GEMM-scatter per kernel offset, ReLU between layers."""
    out = x
    for index, (kernel_maps, weights, num_out) in enumerate(layers):
        acc = np.zeros((num_out, weights.shape[2]), dtype=np.float32)
        for offset, pairs in enumerate(kernel_maps):
            if len(pairs):
                np.add.at(acc, pairs[:, 1], out[pairs[:, 0]] @ weights[offset])
        out = np.maximum(acc, 0) if index < len(layers) - 1 else acc
    return out


class EdgeSet:
    """A mutable edge set as sorted ``row * cols + col`` keys plus values.

    The dynamic workload's reference: edits are NumPy inserts/deletes on the
    sorted arrays and every query rebuilds a SciPy CSR from them, which is
    what a user of the vendor library would do with a changing graph.
    """

    def __init__(self, shape, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray):
        self.shape = shape
        self.keys = edge_rows(indptr) * np.int64(shape[1]) + np.asarray(indices, dtype=np.int64)
        self.vals = np.array(data, copy=True)

    def insert(self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> None:
        keys = rows * np.int64(self.shape[1]) + cols
        order = np.argsort(keys, kind="stable")
        keys, vals = keys[order], vals[order]
        at = np.searchsorted(self.keys, keys)
        self.keys = np.insert(self.keys, at, keys)
        self.vals = np.insert(self.vals, at, vals)

    def delete(self, rows: np.ndarray, cols: np.ndarray) -> None:
        at = np.searchsorted(self.keys, rows * np.int64(self.shape[1]) + cols)
        self.keys = np.delete(self.keys, at)
        self.vals = np.delete(self.vals, at)

    def contains(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        keys = rows * np.int64(self.shape[1]) + cols
        at = np.minimum(np.searchsorted(self.keys, keys), max(len(self.keys) - 1, 0))
        return self.keys[at] == keys if len(self.keys) else np.zeros(len(keys), dtype=bool)

    def csr_arrays(self) -> tuple:
        rows = self.keys // self.shape[1]
        indptr = np.zeros(self.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=self.shape[0]), out=indptr[1:])
        return indptr, self.keys % self.shape[1], self.vals

    def to_scipy(self) -> sp.csr_matrix:
        indptr, indices, vals = self.csr_arrays()
        return sp.csr_matrix((vals, indices, indptr), shape=self.shape)
