"""Edge-level delta logs: incremental structure updates for sparse matrices.

A canonical CSR buffer cannot absorb one insertion without rewriting
``O(nnz)`` memory, so edits ride on a frozen base snapshot as a *row patch*,
kept array-at-a-time (no per-edge Python anywhere):

* The log holds the **complete current content of every row an edit has
  touched**, as parallel arrays sorted by ``row * cols + col``: key, value and
  *origin* — the base position of an entry still exactly as the base stores
  it, ``-1`` for one an edit wrote.  A row enters the log the first time it is
  touched, bringing its base entries along; the base describes the others.
* An edit batch is a handful of whole-array operations (sort, search, one
  masked rewrite per array): ``O(b log b + P)`` for ``b`` edges and ``P``
  logged entries, with no term in the base nnz.
* The patch *is* the overlay's work list (:meth:`DeltaLog.row_patch`): the
  touched rows as a CSR the base's own compiled kernel can run.  The global
  view (:func:`merge_delta`, ``O(nnz)``) is only built for readers of
  ``indptr``/``indices``/``data``, compaction and SDDMM's position maps.

The base arrays are never written, so every kernel compiled against the
snapshot stays valid (:mod:`repro.runtime.dynamic` runs *base plan + row
patch*).  The owner (:class:`~repro.formats.csr.CSRMatrix`) re-compacts once
:attr:`DeltaLog.pending` passes a fraction of the base nnz, which amortises
compaction to ``O(1/threshold)`` per edit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..core.nputils import ragged_arange


def _lookup(sorted_keys: np.ndarray, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(position, found)`` of each key in a sorted, duplicate-free array."""
    at = np.searchsorted(sorted_keys, keys)
    if not sorted_keys.size:
        return at, np.zeros(keys.size, dtype=bool)
    return at, sorted_keys.take(at, mode="clip") == keys


def _last_of_runs(ordered: np.ndarray) -> np.ndarray:
    """Mask of the last entry of every run of equal values in a sorted array."""
    last = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=last[:-1])
    return last


class DeltaLog:
    """Pending edge edits against one frozen CSR snapshot (the parameters).

    ``keys`` / ``values`` / ``origin`` are the patch, ``touched`` marks the
    rows it holds and ``pulled`` counts the base entries those rows held.
    ``inserted`` (entries an edit wrote) and ``dead`` (base entries deleted or
    superseded) count what the owner calls pending: an upsert of a base edge
    is one of each, and deleting it again leaves the dead one.
    """

    def __init__(self, shape, indptr, indices, data, base_keys):
        self.shape = shape
        self.indptr, self.indices, self.data, self.base_keys = indptr, indices, data, base_keys
        self.keys = self.origin = np.zeros(0, dtype=np.int64)
        self.values = np.zeros(0, dtype=data.dtype)
        self.touched = np.zeros(shape[0], dtype=bool)
        self.pulled = self.inserted = self.dead = 0

    @property
    def pending(self) -> int:
        """Total pending edits (inserted edges + dead base entries)."""
        return self.inserted + self.dead

    def _pull(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Touch *rows*; the base entries of those new to the log, in key order."""
        new = np.sort(rows[~self.touched[rows]])
        new = new[_last_of_runs(new)]
        self.touched[new] = True
        counts = self.indptr[new + 1] - self.indptr[new]
        positions = np.repeat(self.indptr[new], counts) + ragged_arange(counts)
        self.pulled += positions.size
        return self.base_keys[positions], self.data[positions], positions

    def _rewrite(self, drop: np.ndarray, at: np.ndarray, keys, values, origin) -> None:
        """Drop the entries at positions *drop* and insert the given ones
        before positions *at* (both ascending, of the log as it stands)."""
        slots = at - np.searchsorted(drop, at) + np.arange(at.size)
        old = np.ones(self.keys.size - drop.size + at.size, dtype=bool)
        old[slots] = False
        keep = np.ones(self.keys.size, dtype=bool)
        keep[drop] = False
        rewritten = []
        for stays, comes in ((self.keys, keys), (self.values, values), (self.origin, origin)):
            array = np.empty(old.size, dtype=stays.dtype)
            array[slots] = comes
            array[old] = stays[keep] if drop.size else stays
            rewritten.append(array)
        self.keys, self.values, self.origin = rewritten
        intact = int(np.count_nonzero(self.origin >= 0))
        self.inserted, self.dead = self.keys.size - intact, self.pulled - intact

    def upsert(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Set the value of each edge; the last write of a key wins."""
        pulled = self._pull(keys // self.shape[1])
        # One sort settles duplicates inside the batch and against the rows
        # it pulled in (which come first, so the batch overwrites them).
        origin = np.concatenate([pulled[2], np.full(keys.size, -1)])
        keys = np.concatenate([pulled[0], keys])
        order = np.argsort(keys, kind="stable")
        order = order[_last_of_runs(keys[order])]
        keys, origin = keys[order], origin[order]
        values = np.concatenate([pulled[1], values])[order]
        at, logged = _lookup(self.keys, keys)
        self.values[at[logged]] = values[logged]
        self.origin[at[logged]] = -1
        fresh = ~logged
        self._rewrite(at[:0], at[fresh], keys[fresh], values[fresh], origin[fresh])

    def remove(self, keys: np.ndarray) -> None:
        """Delete present edges; a ``KeyError`` leaves the log as it was."""
        cols = self.shape[1]
        keys = np.sort(keys)
        if not _last_of_runs(keys).all():
            twice = keys[~_last_of_runs(keys)][0]
            raise KeyError(f"edge {divmod(int(twice), cols)} deleted twice in one batch")
        rows = keys // cols
        at, logged = _lookup(self.keys, keys)
        present = np.where(self.touched[rows], logged, _lookup(self.base_keys, keys)[1])
        if not present.all():
            raise KeyError(f"edge {divmod(int(keys[~present][0]), cols)} is not present")
        # Rows new to the log come in without the entries the batch deletes.
        pulled = self._pull(rows)
        entering = [array[~_lookup(keys, pulled[0])[1]] for array in pulled]
        self._rewrite(at[logged], np.searchsorted(self.keys, entering[0]), *entering)

    def row_patch(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The touched rows as a CSR over the full row count: ``(rows, indptr,
        indices, values)``.  Every row not in *rows* is empty in *indptr*;
        ``indices`` / ``values`` hold the touched rows' content back to back."""
        cols = self.shape[1]
        entry_rows = self.keys // cols
        indptr = np.zeros(self.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(entry_rows, minlength=self.shape[0]), out=indptr[1:])
        return np.flatnonzero(self.touched), indptr, self.keys - entry_rows * cols, self.values


@dataclass
class MergedView:
    """The effective (canonical) arrays of a base snapshot plus its delta.

    ``indptr`` / ``indices`` / ``data`` are the merged CSR triplet (globally
    sorted, no duplicates, nothing deleted).  The rest is the provenance the
    SDDMM overlay needs: ``kept_mask`` marks the base entries that survived,
    ``base_positions`` is the merged position of each of them,
    ``delta_positions`` / ``delta_rows`` the merged position and row of each
    inserted entry in sorted ``(row, col)`` order.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    kept_mask: np.ndarray
    base_positions: np.ndarray
    delta_positions: np.ndarray
    delta_rows: np.ndarray


def base_edge_keys(shape: Tuple[int, int], indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Flattened ``row * cols + col`` key per stored entry, in storage order.

    Strictly increasing for a canonical CSR, which is what makes
    ``searchsorted`` lookups valid; a base that is not canonical (unsorted or
    duplicate column indices within a row) raises ``ValueError``.
    """
    rows = np.repeat(np.arange(shape[0], dtype=np.int64), np.diff(indptr))
    keys = rows * np.int64(shape[1]) + np.asarray(indices, dtype=np.int64)
    if keys.size > 1 and not np.all(np.diff(keys) > 0):
        raise ValueError("incremental updates require a canonically sorted CSR base "
                         "(ascending, duplicate-free column indices per row)")
    return keys


def merge_delta(log: DeltaLog) -> MergedView:
    """Merge one delta log into its base snapshot (``O(nnz)``).

    Rows move as blocks — a touched row comes whole from the patch, any other
    whole from the base — so the result is one gather from ``[base | patch]``
    through a per-row offset; no search and no sort.  It is the canonical
    order a cold rebuild from the final edge set would produce.
    """
    _, patch_indptr, patch_indices, patch_values = log.row_patch()
    nnz, touched = log.indices.size, log.touched
    base_counts = np.diff(log.indptr)
    counts = np.where(touched, np.diff(patch_indptr), base_counts)
    indptr = np.zeros(log.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    source = np.where(touched, nnz + patch_indptr[:-1], log.indptr[:-1]) - indptr[:-1]
    source = np.repeat(source, counts) + np.arange(indptr[-1])
    # Where every entry of ``[base | patch]`` landed.  A base entry of a
    # touched row survives where the patch still holds it intact.
    target = np.empty(nnz + log.keys.size, dtype=np.int64)
    target[source] = np.arange(source.size)
    intact = log.origin >= 0
    target[log.origin[intact]] = target[nnz:][intact]
    kept = np.repeat(~touched, base_counts)
    kept[log.origin[intact]] = True
    return MergedView(
        indptr=indptr,
        indices=np.concatenate([log.indices, patch_indices])[source],
        data=np.concatenate([log.data, patch_values])[source],
        kept_mask=kept,
        base_positions=target[:nnz][kept],
        delta_positions=target[nnz:][~intact],
        delta_rows=log.keys[~intact] // log.shape[1],
    )
