"""Compressed Sparse Row (CSR) matrices, with incremental structure updates.

A :class:`CSRMatrix` is canonically frozen — kernels, caches and
fingerprints all hash its ``indptr``/``indices`` content — but it is not
*immutable*: :meth:`CSRMatrix.insert_edges` and
:meth:`CSRMatrix.delete_edges` apply O(delta) edits through a
:class:`~repro.formats.delta.DeltaLog` riding on the frozen base arrays,
and every mutation bumps a monotonic :attr:`CSRMatrix.structure_epoch`.
The public ``indptr``/``indices``/``data`` views always expose the
*effective* (base + delta) arrays, so all consumers see the updated
matrix; re-compaction into a fresh base happens automatically once the
delta exceeds :attr:`CSRMatrix.compact_threshold` of the base nnz (see
``docs/dynamic.md`` for the amortised bounds).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ..core.axes import DenseFixedAxis, SparseVariableAxis
from .delta import DeltaLog, MergedView, base_edge_keys, merge_delta

RowPatch = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

#: Pending-delta fraction of the base nnz beyond which a mutation
#: automatically re-compacts (keeps per-edit cost O(1/threshold) amortised).
DEFAULT_COMPACT_THRESHOLD = 0.25


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
        compact_threshold: float = DEFAULT_COMPACT_THRESHOLD,
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
        self.compact_threshold = float(compact_threshold)
        self._indptr = indptr
        self._indices = indices
        self._data = data
        self._init_dynamic_state()

    def _init_dynamic_state(self) -> None:
        self._delta: Optional[DeltaLog] = None
        self._epoch = 0
        self._mutations = 0
        self._merged: Optional[MergedView] = None
        self._row_patch: Optional[RowPatch] = None
        self._base_keys: Optional[np.ndarray] = None
        self._base_view: Optional["CSRMatrix"] = None
        self._signature: Optional[Tuple[int, str]] = None
        #: Names the frozen base arrays: shared with :meth:`base_view`, and
        #: replaced only when :meth:`compact` replaces the arrays.  Caches of
        #: work done on the base (bound kernels) key on its identity.
        self.base_snapshot = object()

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

    # -- storage views --------------------------------------------------------------
    # The public triplet always reflects the *effective* matrix: the frozen
    # base arrays when no delta is pending, else the (cached) merged arrays.

    @property
    def indptr(self) -> np.ndarray:
        return self._indptr if self._delta is None else self._merged_view().indptr

    @property
    def indices(self) -> np.ndarray:
        return self._indices if self._delta is None else self._merged_view().indices

    @property
    def data(self) -> np.ndarray:
        return self._data if self._delta is None else self._merged_view().data

    def _merged_view(self) -> MergedView:
        if self._merged is None:
            self._merged = merge_delta(self._delta)
        return self._merged

    def row_patch(self) -> RowPatch:
        """The rows a pending delta touched, as a CSR over the full row count.

        ``(rows, indptr, indices, values)`` of
        :meth:`~repro.formats.delta.DeltaLog.row_patch`, memoised per
        :attr:`structure_epoch`: what the runtime recomputes on top of the
        base plan, in ``O(touched rows)`` with no pass over the base.
        """
        if self._row_patch is None:
            self._row_patch = self._delta.row_patch()
        return self._row_patch

    def _ensure_base_keys(self) -> np.ndarray:
        if self._base_keys is None:
            self._base_keys = base_edge_keys(self.shape, self._indptr, self._indices)
        return self._base_keys

    # -- incremental updates --------------------------------------------------------
    @property
    def structure_epoch(self) -> int:
        """Monotonic counter bumped by every mutating call.

        Caches that memoise by object identity must key by
        ``(id(matrix), matrix.structure_epoch)`` — an unchanged epoch
        guarantees unchanged structure *and* values.  Re-compaction does not
        bump the epoch: it rewrites the storage, not the content.
        """
        return self._epoch

    @property
    def mutation_count(self) -> int:
        """Cumulative number of edge edits ever applied (never resets)."""
        return self._mutations

    @property
    def has_pending_delta(self) -> bool:
        """Whether edits are pending against the frozen base snapshot."""
        return self._delta is not None

    @property
    def pending_delta(self) -> int:
        """Number of pending edits (inserted + dead entries)."""
        return self._delta.pending if self._delta is not None else 0

    @property
    def drift_ratio(self) -> float:
        """Pending edits as a fraction of the base nnz."""
        return self.pending_delta / max(len(self._indices), 1)

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

    def _open_delta(self) -> DeltaLog:
        """The pending log, or a fresh one the caller adopts once its batch applied."""
        if self._delta is not None:
            return self._delta
        return DeltaLog(
            self.shape, self._indptr, self._indices, self._data, self._ensure_base_keys()
        )

    def _bump(self, edits: int) -> None:
        self._epoch += 1
        self._mutations += edits
        self._merged = self._row_patch = None
        self._signature = None
        if not self._delta.pending:
            # Edits cancelled out (insert then delete): back to the base,
            # whose view and snapshot identity stand.
            self._delta = None
        elif self.drift_ratio >= self.compact_threshold:
            self.compact()

    def insert_edges(self, rows, cols, values=None) -> None:
        """Insert (or upsert) edges through the delta log, a batch at a time.

        Inserting an edge that already exists replaces its value (the base
        entry is superseded, never rewritten in place); naming an edge twice
        in one batch keeps the last value.  The batch is validated before any
        state changes, bumps :attr:`structure_epoch` once, and may trigger
        automatic re-compaction.

        Args:
            rows: Row index (scalar or 1-D array) per inserted edge.
            cols: Column index per inserted edge.
            values: Edge value per edge (scalar broadcasts; default 1).
        """
        rows, cols, values = self._edit_batch(rows, cols, values)
        if rows.size == 0:
            return
        delta = self._open_delta()
        delta.upsert(rows * np.int64(self.cols) + cols, values)
        self._delta = delta
        self._bump(int(rows.size))

    def delete_edges(self, rows, cols) -> None:
        """Delete existing edges through the delta log, a batch at a time.

        Raises:
            KeyError: If any addressed edge is not present in the effective
                matrix, or is named twice (the batch is checked up front and
                applied atomically: a rejected batch leaves the matrix exactly
                as it found it).
        """
        rows, cols, _ = self._edit_batch(rows, cols)
        if rows.size == 0:
            return
        delta = self._open_delta()
        delta.remove(rows * np.int64(self.cols) + cols)
        self._delta = delta  # adopted only once the batch went through
        self._bump(int(rows.size))

    def compact(self) -> "CSRMatrix":
        """Fold the pending delta into a fresh canonical base (O(nnz)).

        The effective content is unchanged, so :attr:`structure_epoch` is
        *not* bumped — content-keyed memos stay valid across compaction.
        Returns ``self`` for chaining.
        """
        if self._delta is not None:
            merged = self._merged_view()
            self._indptr = merged.indptr
            self._indices = merged.indices
            self._data = merged.data
            self._delta = self._merged = self._row_patch = None
            self._base_keys = None
            self._base_view = None
            self.base_snapshot = object()
        return self

    def base_view(self) -> "CSRMatrix":
        """A frozen :class:`CSRMatrix` sharing this matrix's base arrays.

        The runtime executes a mutated matrix as *base plan + overlay*: the
        base view keeps its object identity (and arrays) across an update
        window, so kernels and fingerprints computed against it stay warm
        until :meth:`compact` replaces the base.  With no pending delta the
        matrix is its own base.
        """
        if self._delta is None:
            return self
        view = self._base_view
        if view is None:
            view = CSRMatrix.__new__(CSRMatrix)
            view.shape = self.shape
            view.dtype = self.dtype
            view.compact_threshold = self.compact_threshold
            view._indptr = self._indptr
            view._indices = self._indices
            view._data = self._data
            view._init_dynamic_state()
            view._base_keys = self._base_keys
            view.base_snapshot = self.base_snapshot
            self._base_view = view
        return view

    def content_signature(self) -> str:
        """Content hash of the effective arrays, memoised per epoch.

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
        if self._delta is None:
            return int(len(self._indices))
        return int(len(self._indices)) - self._delta.dead + self._delta.inserted

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
