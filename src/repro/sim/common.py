"""Shared helpers of the operator and baseline workload models."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .cache import reuse_distance_hit_rate
from .device import DeviceSpec


INDEX_BYTES = 4


def value_bytes(dtype: str) -> int:
    """Bytes per value for the dtypes used by the operators."""
    return 2 if dtype in ("float16", "bfloat16") else 4


def dense_reuse_miss_rate(
    unique_bytes: float, touched_bytes: float, device: DeviceSpec
) -> float:
    """DRAM miss rate of a dense operand streamed with reuse through L2.

    The first touch of every unique byte always misses; re-accesses hit with
    a probability that depends on whether the working set fits in L2.
    """
    if touched_bytes <= 0:
        return 1.0
    hit_rate = reuse_distance_hit_rate(unique_bytes, touched_bytes, device.l2_bytes)
    return max(0.0, 1.0 - hit_rate)


def ceil_div(a: int, b: int) -> int:
    if b <= 0:
        raise ValueError("divisor must be positive")
    return -(-a // b)


def split_row_blocks(
    row_lengths: np.ndarray,
    rows_per_block: int,
    max_nnz_per_block: Optional[int] = None,
) -> np.ndarray:
    """Per-thread-block work (in non-zeros) for a row-split schedule.

    Rows are grouped ``rows_per_block`` at a time.  When ``max_nnz_per_block``
    is given, rows longer than the cap are split across several blocks first
    (the long-row splitting cuSPARSE-style kernels perform); without a cap
    the schedule is a pure row split and inherits the full row-length skew.
    """
    rows_per_block = max(1, int(rows_per_block))
    lengths = np.asarray(row_lengths, dtype=np.float64)
    if lengths.size == 0:
        return np.zeros(0, dtype=np.float64)
    if max_nnz_per_block is not None and max_nnz_per_block > 0:
        pieces: list = []
        cap = float(max_nnz_per_block)
        for length in lengths:
            if length <= cap:
                pieces.append(length)
            else:
                full, rest = divmod(length, cap)
                pieces.extend([cap] * int(full))
                if rest > 0:
                    pieces.append(rest)
        lengths = np.asarray(pieces, dtype=np.float64)
    pad = (-lengths.size) % rows_per_block
    padded = np.concatenate([lengths, np.zeros(pad)])
    return padded.reshape(-1, rows_per_block).sum(axis=1)
