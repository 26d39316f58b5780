"""Figure 16: sparse-attention SpMM/SDDMM speedup vs Triton block-sparse.

Every duration is a *simulated V100* (or RTX 3070) time from the analytic model of
``repro.sim`` — no kernel is run or timed here.
"""

import pytest

from repro.formats import BSRMatrix
from repro.sim.baselines import triton
from repro.sim.gpu_model import GPUModel
from repro.sim.ops.batched import (
    batched_sddmm_bsr_workload,
    batched_sddmm_csr_workload,
    batched_spmm_bsr_workload,
    batched_spmm_csr_workload,
)
from repro.workloads.attention import AttentionConfig, band_mask, butterfly_mask

PAPER = {
    "V100": {"spmm": {"butterfly": 1.61, "longformer": 1.59},
             "sddmm": {"butterfly": 1.56, "longformer": 1.50}},
    "RTX3070": {"spmm": {"butterfly": 1.05, "longformer": 1.09},
                "sddmm": {"butterfly": 2.88, "longformer": 2.98}},
}


@pytest.mark.figure("fig16")
def test_fig16_sparse_attention_operators(benchmark, device):
    config = AttentionConfig()  # 4096 sequence, 12 heads, band 256, head dim 64
    masks = {
        "longformer": band_mask(config.seq_len, config.band_size, config.block_size),
        "butterfly": butterfly_mask(config.seq_len, config.block_size),
    }
    model = GPUModel(device)

    def run():
        table = {}
        for pattern, mask in masks.items():
            bsr = BSRMatrix.from_csr(mask, config.block_size)
            args = (config.head_dim, config.num_heads, device)
            spmm_triton = model.estimate(triton.blocksparse_spmm_workload(bsr, *args)).duration_us
            sddmm_triton = model.estimate(triton.blocksparse_sddmm_workload(bsr, *args)).duration_us
            table[pattern] = {
                "spmm": {
                    "Triton": 1.0,
                    "SparseTIR-CSR": spmm_triton
                    / model.estimate(batched_spmm_csr_workload(mask, *args)).duration_us,
                    "SparseTIR-BSR": spmm_triton
                    / model.estimate(batched_spmm_bsr_workload(bsr, *args)).duration_us,
                },
                "sddmm": {
                    "Triton": 1.0,
                    "SparseTIR-CSR": sddmm_triton
                    / model.estimate(batched_sddmm_csr_workload(mask, *args)).duration_us,
                    "SparseTIR-BSR": sddmm_triton
                    / model.estimate(batched_sddmm_bsr_workload(bsr, *args)).duration_us,
                },
            }
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)

    print(f"\n=== Figure 16 (simulated {device.name}): sparse attention speedup vs Triton ===")
    print(f"{'pattern':<14}{'operator':<12}{'Triton':>8}{'TIR-CSR':>10}{'TIR-BSR':>10}{'paper BSR':>11}")
    for pattern, ops in table.items():
        for op_name, row in ops.items():
            paper = PAPER[device.name][op_name][pattern]
            print(f"{pattern:<14}{op_name:<12}{row['Triton']:>8.2f}{row['SparseTIR-CSR']:>10.2f}"
                  f"{row['SparseTIR-BSR']:>10.2f}{paper:>11.2f}")

    for pattern, ops in table.items():
        # BSR + tensorisation beats Triton; scalar CSR is an order of magnitude slower.
        assert ops["spmm"]["SparseTIR-BSR"] > 1.0
        assert ops["sddmm"]["SparseTIR-BSR"] > 1.0
        assert ops["spmm"]["SparseTIR-CSR"] < 0.3
