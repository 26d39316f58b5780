"""Compressed Sparse Row (CSR) matrices, editable a batch at a time.

The public ``indptr``/``indices``/``data`` of a :class:`CSRMatrix` are
canonical (ascending, duplicate-free columns per row) and exact
(``indptr[-1] == len(indices)``); kernels, caches and fingerprints hash that
content.  :meth:`CSRMatrix.insert_edges` and :meth:`CSRMatrix.delete_edges`
apply one batch to the matrix's sorted ``row * cols + col`` keys in O(nnz)
NumPy — the way a user of SciPy edits an edge list — and bump the monotonic
:attr:`CSRMatrix.structure_epoch` once.  Every batch makes fresh arrays and
writes none in place, so a reader still holding the previous ones (a serving
thread) keeps a consistent matrix.

An edited matrix keeps its values, and the int32 tables kernels take, padded
to a :attr:`CSRMatrix.capacity` with slack beyond nnz (:data:`SLACK`): the
runtime binds a kernel to the capacity once and feeds it the current tables
on every call, so an edit that stays within the capacity needs no new kernel
(see ``docs/dynamic.md``).  A matrix that was never edited has no slack.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ..core.axes import DenseFixedAxis, SparseVariableAxis

#: Spare positions a batch that outgrows the capacity leaves beyond the new
#: nnz, as ``(fraction of nnz, minimum)``: edits that stay within them feed
#: the kernel already bound to the capacity.
SLACK = (0.125, 16)


def _last_of_runs(ordered: np.ndarray) -> np.ndarray:
    """Mask of the last entry of every run of equal values in a sorted array."""
    last = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=last[:-1])
    return last


def _lookup(sorted_keys: np.ndarray, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(position, found)`` of each key in a sorted, duplicate-free array."""
    at = np.searchsorted(sorted_keys, keys)
    if not sorted_keys.size:
        return at, np.zeros(keys.size, dtype=bool)
    return at, sorted_keys.take(at, mode="clip") == keys


class CSRMatrix:
    """A CSR matrix with explicit ``indptr``/``indices``/``data`` arrays.

    Example:
        >>> import numpy as np
        >>> m = CSRMatrix.from_dense(np.eye(3))
        >>> m.structure_epoch, m.nnz
        (0, 3)
        >>> m.insert_edges([0], [1], [2.0])
        >>> m.structure_epoch, m.nnz
        (1, 4)
        >>> m.to_dense()[0].tolist()
        [1.0, 2.0, 0.0]
    """

    def __init__(
        self,
        shape: Tuple[int, int],
        indptr: np.ndarray,
        indices: np.ndarray,
        data: Optional[np.ndarray] = None,
        dtype: str = "float32",
    ):
        self.shape = (int(shape[0]), int(shape[1]))
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if len(indptr) != self.shape[0] + 1:
            raise ValueError(
                f"indptr length {len(indptr)} does not match {self.shape[0]} rows"
            )
        if indptr[0] != 0 or indptr[-1] != len(indices):
            raise ValueError("indptr must start at 0 and end at len(indices)")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if indices.size and (indices.min() < 0 or indices.max() >= self.shape[1]):
            raise ValueError("column indices out of range")
        self.dtype = np.dtype(dtype).name
        value_dtype = np.dtype(self.dtype)
        if data is None:
            data = np.ones(len(indices), dtype=value_dtype)
        data = np.asarray(data).astype(value_dtype, copy=False)
        if data.shape[0] != len(indices):
            raise ValueError("data length must equal number of non-zeros")
        self._indptr = indptr
        self._indices = indices
        #: ``data`` is ``_values[:nnz]``: the values padded to the capacity.
        self._data = self._values = data
        self._epoch = 0
        self._mutations = 0
        #: Sorted ``row * cols + col`` per stored entry, made on the first edit.
        self._keys: Optional[np.ndarray] = None
        #: ``(epoch, int32 indptr, int32 indices padded to the capacity)``.
        self._tables: Optional[Tuple[int, np.ndarray, np.ndarray]] = None
        #: ``(epoch, int32 row of every stored position)``.
        self._rows: Optional[Tuple[int, np.ndarray]] = None
        self._signature: Optional[Tuple[int, str]] = None

    # -- constructors ---------------------------------------------------------------
    @classmethod
    def from_scipy(cls, matrix: sp.spmatrix, dtype: str = "float32") -> "CSRMatrix":
        """Convert any SciPy sparse matrix (indices are sorted canonically).

        Args:
            matrix: Any ``scipy.sparse`` matrix.
            dtype: Value dtype string of the result.

        Returns:
            An equivalent :class:`CSRMatrix`.
        """
        csr = sp.csr_matrix(matrix)
        csr.sort_indices()
        return cls(csr.shape, csr.indptr, csr.indices, csr.data, dtype=dtype)

    @classmethod
    def from_dense(cls, dense: np.ndarray, dtype: str = "float32") -> "CSRMatrix":
        """Compress a dense array, dropping zero entries.

        Args:
            dense: A 2-D array.
            dtype: Value dtype string of the result.

        Returns:
            The :class:`CSRMatrix` holding the non-zero entries.

        Example:
            >>> import numpy as np
            >>> CSRMatrix.from_dense(np.eye(3)).nnz
            3
        """
        return cls.from_scipy(sp.csr_matrix(np.asarray(dense)), dtype=dtype)

    @classmethod
    def random(
        cls,
        rows: int,
        cols: int,
        density: float,
        seed: int = 0,
        dtype: str = "float32",
    ) -> "CSRMatrix":
        """A uniformly random sparse matrix with the given density.

        Args:
            rows: Number of rows.
            cols: Number of columns.
            density: Expected fraction of stored entries.
            seed: RNG seed (deterministic for equal arguments).
            dtype: Value dtype string.

        Returns:
            A random :class:`CSRMatrix` with standard-normal values.
        """
        rng = np.random.default_rng(seed)
        value_dtype = np.dtype(dtype)
        matrix = sp.random(rows, cols, density=density, random_state=rng, format="csr",
                           data_rvs=lambda size: rng.standard_normal(size).astype(value_dtype))
        return cls.from_scipy(matrix, dtype=dtype)

    # -- storage --------------------------------------------------------------------
    @property
    def indptr(self) -> np.ndarray:
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        return self._indices

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def capacity(self) -> int:
        """Positions the value storage and kernel tables hold (``>= nnz``)."""
        return len(self._values)

    def tables(self, size: int) -> Dict[str, np.ndarray]:
        """The tables a kernel bound to *size* positions is fed (``nnz <= size
        <= capacity``): int32 ``indptr``, int32 ``indices`` and the
        ``values``, the last two padded to *size*.  The int32 copies are made
        once per epoch; a write into :attr:`data` shows in ``values``."""
        memo = self._tables
        if memo is None or memo[0] != self._epoch:
            indices = np.zeros(self.capacity, dtype=np.int32)
            indices[: self.nnz] = self._indices
            memo = self._tables = (self._epoch, self._indptr.astype(np.int32), indices)
        return {"indptr": memo[1], "indices": memo[2][:size], "values": self._values[:size]}

    def position_rows(self) -> np.ndarray:
        """The row of every stored position (int32, nnz entries): the table a
        kernel's row search over the positions reads, fed beside
        :meth:`tables`.  Made once per epoch."""
        memo = self._rows
        if memo is None or memo[0] != self._epoch:
            rows = np.repeat(np.arange(self.rows, dtype=np.int32), np.diff(self._indptr))
            memo = self._rows = (self._epoch, rows)
        return memo[1]

    # -- edits --------------------------------------------------------------------
    @property
    def structure_epoch(self) -> int:
        """Monotonic counter bumped by every edit batch.

        Caches that memoise by object identity must key by
        ``(id(matrix), matrix.structure_epoch)`` — an unchanged epoch
        guarantees unchanged structure *and* values (up to in-place writes
        into :attr:`data`).  :meth:`compact` does not bump it: it rewrites
        the storage, not the content.
        """
        return self._epoch

    @property
    def mutation_count(self) -> int:
        """Cumulative number of edge edits ever applied (never resets)."""
        return self._mutations

    @property
    def pending_delta(self) -> int:
        """Edits not yet folded into the arrays: always 0, since every batch
        rebuilds them (kept for readers of the former edit log's counter)."""
        return 0

    def _edit_batch(self, rows, cols, values=None):
        rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
        cols = np.atleast_1d(np.asarray(cols, dtype=np.int64))
        if rows.ndim != 1 or rows.shape != cols.shape:
            raise ValueError("rows and cols must be 1-D of equal length")
        if rows.size and (rows.min() < 0 or rows.max() >= self.rows):
            raise ValueError("row indices out of range")
        if cols.size and (cols.min() < 0 or cols.max() >= self.cols):
            raise ValueError("column indices out of range")
        if values is None:
            values = np.ones(rows.size, dtype=np.dtype(self.dtype))
        else:
            values = np.asarray(values, dtype=np.dtype(self.dtype))
            if values.ndim == 0:
                values = np.full(rows.size, values, dtype=np.dtype(self.dtype))
            if values.shape != rows.shape:
                raise ValueError("values must match the number of edited edges")
        return rows, cols, values

    def _edit_keys(self) -> np.ndarray:
        keys = self._keys
        if keys is None:
            rows = np.repeat(np.arange(self.rows, dtype=np.int64), np.diff(self._indptr))
            keys = rows * np.int64(self.cols) + self._indices
            if keys.size > 1 and not bool((keys[1:] > keys[:-1]).all()):
                raise ValueError("editing requires a canonical CSR "
                                 "(ascending, duplicate-free column indices per row)")
            self._keys = keys
        return keys

    def _row_shift(self, keys: np.ndarray) -> np.ndarray:
        """Per ``indptr`` entry, how many of the sorted *keys* lie in earlier rows."""
        shift = np.zeros(self.rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // self.cols, minlength=self.rows), out=shift[1:])
        return shift

    def _adopt(self, keys, indptr, indices, values, nnz: int, edits: int) -> None:
        self._keys, self._indptr, self._indices = keys, indptr, indices
        self._values, self._data = values, values[:nnz]
        self._epoch += 1
        self._mutations += edits

    def insert_edges(self, rows, cols, values=None) -> None:
        """Insert (or upsert) edges, a batch at a time.

        Inserting an edge that already exists replaces its value; naming an
        edge twice in one batch keeps the last value.  The batch is validated
        before any state changes and bumps :attr:`structure_epoch` once.  It
        costs O(nnz) (plus a sort of the batch) and makes fresh arrays: a
        batch that outgrows the :attr:`capacity` grows it by :data:`SLACK`.

        Args:
            rows: Row index (scalar or 1-D array) per inserted edge.
            cols: Column index per inserted edge.
            values: Edge value per edge (scalar broadcasts; default 1).
        """
        rows, cols, values = self._edit_batch(rows, cols, values)
        if rows.size == 0:
            return
        keys = self._edit_keys()
        batch = rows * np.int64(self.cols) + cols
        order = np.argsort(batch, kind="stable")
        last = _last_of_runs(batch[order])
        batch, values = batch[order][last], values[order][last]
        at, found = _lookup(keys, batch)
        fresh = ~found
        at_fresh, new = at[fresh], batch[fresh]
        nnz = keys.size + new.size
        size = self.capacity
        if nnz > size:
            size = nnz + max(int(nnz * SLACK[0]), SLACK[1])
        merged = np.insert(keys, at_fresh, new)
        padded = np.zeros(size, dtype=self._values.dtype)
        padded[:nnz] = np.insert(self._data, at_fresh, values[fresh])
        padded[np.searchsorted(merged, batch[found])] = values[found]
        self._adopt(
            merged, self._indptr + self._row_shift(new),
            np.insert(self._indices, at_fresh, new % self.cols), padded, nnz, int(rows.size),
        )

    def delete_edges(self, rows, cols) -> None:
        """Delete existing edges, a batch at a time (O(nnz), fresh arrays).

        Raises:
            KeyError: If any addressed edge is not present, or is named twice
                (the batch is checked up front and applied atomically: a
                rejected batch leaves the matrix exactly as it found it).
        """
        rows, cols, _ = self._edit_batch(rows, cols)
        if rows.size == 0:
            return
        keys = self._edit_keys()
        batch = np.sort(rows * np.int64(self.cols) + cols)
        twice = ~_last_of_runs(batch)
        if twice.any():
            edge = divmod(int(batch[twice][0]), self.cols)
            raise KeyError(f"edge {edge} deleted twice in one batch")
        at, present = _lookup(keys, batch)
        if not present.all():
            raise KeyError(f"edge {divmod(int(batch[~present][0]), self.cols)} is not present")
        nnz = keys.size - batch.size
        padded = np.zeros(self.capacity, dtype=self._values.dtype)
        padded[:nnz] = np.delete(self._data, at)
        self._adopt(
            np.delete(keys, at), self._indptr - self._row_shift(batch),
            np.delete(self._indices, at), padded, nnz, int(rows.size),
        )

    def compact(self) -> "CSRMatrix":
        """Trim the slack: the capacity becomes nnz (a fresh value array).

        The content is unchanged, so :attr:`structure_epoch` is *not*
        bumped — content-keyed memos stay valid.  A kernel bound to the old
        capacity is bound anew on the next call.  Returns ``self``.
        """
        if self.capacity != self.nnz:
            self._values = self._data = self._data.copy()
            self._tables = None
        return self

    def content_signature(self) -> str:
        """Content hash of ``indptr`` / ``indices`` / ``data``, memoised per epoch.

        Stale-proof replacement for caching a content hash on the object:
        the memo is keyed by :attr:`structure_epoch`, so a mutated matrix
        can never serve the pre-mutation hash, while unchanged-epoch calls
        stay O(1).
        """
        cached = self._signature
        if cached is not None and cached[0] == self._epoch:
            return cached[1]
        from ..runtime.keys import content_key

        digest = content_key(self.shape, self.indptr, self.indices, self.data)
        self._signature = (self._epoch, digest)
        return digest

    # -- basic properties -----------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(len(self._indices))

    @property
    def rows(self) -> int:
        return self.shape[0]

    @property
    def cols(self) -> int:
        return self.shape[1]

    @property
    def density(self) -> float:
        total = self.rows * self.cols
        return self.nnz / total if total else 0.0

    def row_lengths(self) -> np.ndarray:
        return np.diff(self.indptr)

    def max_row_length(self) -> int:
        lengths = self.row_lengths()
        return int(lengths.max()) if lengths.size else 0

    def mean_row_length(self) -> float:
        lengths = self.row_lengths()
        return float(lengths.mean()) if lengths.size else 0.0

    def nbytes(self, index_bytes: int = 4, value_bytes: int = 4) -> int:
        return (len(self.indptr) + len(self.indices)) * index_bytes + self.nnz * value_bytes

    # -- conversions -----------------------------------------------------------------
    def to_scipy(self) -> sp.csr_matrix:
        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=self.shape)

    def to_dense(self) -> np.ndarray:
        return np.asarray(self.to_scipy().todense(), dtype=np.dtype(self.dtype))

    def transpose(self) -> "CSRMatrix":
        return CSRMatrix.from_scipy(self.to_scipy().T.tocsr(), dtype=self.dtype)

    def column_partition(self, num_parts: int) -> list:
        """Split columns into ``num_parts`` contiguous partitions (for hyb)."""
        if num_parts <= 0:
            raise ValueError("num_parts must be positive")
        width = (self.cols + num_parts - 1) // num_parts
        parts = []
        scipy_matrix = self.to_scipy()
        for part in range(num_parts):
            lo = part * width
            hi = min((part + 1) * width, self.cols)
            if lo >= hi:
                sub = sp.csr_matrix((self.rows, 0), dtype=np.dtype(self.dtype))
            else:
                sub = scipy_matrix[:, lo:hi].tocsr()
            parts.append(CSRMatrix.from_scipy(sub, dtype=self.dtype) if sub.shape[1] else None)
        return parts

    # -- SparseTIR axes -----------------------------------------------------------------
    def to_axes(self, prefix: str = "") -> Tuple[DenseFixedAxis, SparseVariableAxis]:
        """Create the (I, J) SparseTIR axes describing this matrix."""
        i_axis = DenseFixedAxis(f"{prefix}I", self.rows)
        j_axis = SparseVariableAxis(
            f"{prefix}J", i_axis, self.cols, self.nnz, indptr=self.indptr, indices=self.indices
        )
        return i_axis, j_axis

    def __repr__(self) -> str:
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"
