"""PyTorch Geometric (PyG) baseline.

PyG expresses message passing with explicit gather/scatter tensors: messages
are materialised per edge before being reduced, which multiplies DRAM traffic
and memory footprint by the average degree for aggregation-style operators.
Its RGCN implementation (the best-performing official one, as selected in the
paper) loops over relations from Python, paying per-relation kernel launch
and framework overhead.
"""

from __future__ import annotations

import numpy as np

from ...formats.csr import CSRMatrix
from ...ops.spmm import spmm_reference
from ..common import INDEX_BYTES, ceil_div, value_bytes
from ..device import DeviceSpec
from ..workload import BlockGroup, KernelWorkload

#: Host-side overhead per launched operator (Python dispatch, autograd).
FRAMEWORK_OVERHEAD_US = 40.0


def spmm(csr: CSRMatrix, features: np.ndarray) -> np.ndarray:
    return spmm_reference(csr, features)


def gather_scatter_spmm_workload(
    csr: CSRMatrix, feat_size: int, device: DeviceSpec
) -> KernelWorkload:
    """PyG-style aggregation: materialise per-edge messages, then scatter-add."""
    vbytes = value_bytes("float32")
    edges = csr.nnz
    edges_per_block = 128
    num_blocks = max(1, ceil_div(edges, edges_per_block))

    workload = KernelWorkload(name="pyg_gather_scatter_spmm", num_launches=2)
    # Gather: read source features, write the per-edge message tensor.
    workload.add(
        BlockGroup(
            name="gather_messages",
            num_blocks=num_blocks,
            threads_per_block=128,
            flops_per_block=edges_per_block * feat_size,
            dram_read_bytes_per_block=edges_per_block * (feat_size * vbytes + 2 * INDEX_BYTES),
            dram_write_bytes_per_block=edges_per_block * feat_size * vbytes,
            vector_width=4,
        )
    )
    # Scatter-add: read the message tensor, atomically accumulate to outputs.
    workload.add(
        BlockGroup(
            name="scatter_add",
            num_blocks=num_blocks,
            threads_per_block=128,
            flops_per_block=edges_per_block * feat_size,
            dram_read_bytes_per_block=edges_per_block * (feat_size * vbytes + INDEX_BYTES),
            dram_write_bytes_per_block=edges_per_block * feat_size * vbytes,
            vector_width=4,
            compute_efficiency=0.6,  # atomics serialise colliding rows
        )
    )
    message_tensor = edges * feat_size * vbytes
    workload.memory_footprint_bytes = (
        csr.nbytes() + (csr.rows + csr.cols) * feat_size * vbytes + message_tensor
    )
    workload.metadata["materialized_messages_bytes"] = message_tensor
    return workload
