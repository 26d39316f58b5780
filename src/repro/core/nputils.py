"""Small NumPy index-arithmetic helpers shared across the package."""

from __future__ import annotations

import numpy as np

#: Upper bound on the number of lanes a single loop nest may expand to before
#: the emitted NumPy tier bails out (guards against memory blowups; the native
#: tier runs the nest as loops and has no such ceiling).  Part of the structural
#: fingerprint: changing it changes which engine serves a cached kernel.
MAX_LANES = 1 << 26


def ragged_arange(counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(c) for c in counts])`` without the Python loop.

    The workhorse of ragged-range expansion: both the emitted kernels
    (expanding variable-extent loops into lanes) and the hyb format builder
    (scattering variable-length row pieces into ELL buckets) are built on it.
    """
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    offsets = np.cumsum(counts) - counts
    return np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
