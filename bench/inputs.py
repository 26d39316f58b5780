"""Seeded input generation: the same ``--seed`` gives byte-identical inputs.

Sizes, widths and dtypes are fixed by the case names; the seed decides the
*content* (which edges, which feature values, which edits, which order), so
runs on different seeds measure the same amount of work on different data.
"""

from __future__ import annotations

import hashlib
import zlib
from typing import Any

import numpy as np


def rng(seed: int, tag: str) -> np.random.Generator:
    """An independent stream per (seed, purpose)."""
    return np.random.default_rng([int(seed), zlib.crc32(tag.encode())])


def graph(name: str, seed: int) -> Any:
    """A Table-1 graph as a (frozen, shared) CSRMatrix."""
    from repro.workloads.graphs import synthetic_graph

    return synthetic_graph(name, seed=int(seed)).csr


def mutable_copy(csr: Any) -> Any:
    """A private CSRMatrix over copies of a generated graph's arrays."""
    from repro.formats.csr import CSRMatrix

    return CSRMatrix(
        csr.shape, np.array(csr.indptr), np.array(csr.indices), np.array(csr.data), dtype=csr.dtype
    )


def split_relations(csr: Any, num_relations: int, seed: int) -> Any:
    """Partition a graph's edges into relation slices (a synthetic heterograph)."""
    import scipy.sparse as sp

    from repro.formats.csf import CSFTensor
    from repro.formats.csr import CSRMatrix

    coo = csr.to_scipy().tocoo()
    relation = rng(seed, "relations").integers(0, num_relations, size=coo.nnz)
    slices = []
    for r in range(num_relations):
        keep = relation == r
        matrix = sp.coo_matrix(
            (coo.data[keep], (coo.row[keep], coo.col[keep])), shape=coo.shape
        ).tocsr()
        slices.append(CSRMatrix.from_scipy(matrix))
    return CSFTensor((num_relations,) + coo.shape, slices)


def digest(*parts: Any) -> str:
    """Content hash of arrays / scalars, for the determinism self-test."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str(part.dtype).encode())
            h.update(str(part.shape).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()
