"""Figure 17: SpMM on block-pruned (structured) BERT weights vs density.

Every duration is a *simulated V100* (or RTX 3070) time from the analytic model of
``repro.sim`` — no kernel is run or timed here.
"""

import pytest

from repro.formats import BSRMatrix, DBSRMatrix
from repro.sim.baselines import triton
from repro.sim.baselines.cublas import gemm_workload
from repro.sim.gpu_model import GPUModel
from repro.sim.ops.pruned_spmm import pruned_spmm_bsr_workload, pruned_spmm_dbsr_workload
from repro.workloads.pruning import SEQUENCE_LENGTH, block_pruned_weight, density_sweep

ROWS, COLS, BLOCK = 768, 768, 32
SYSTEMS = ("SparseTIR(BSR)", "SparseTIR(DBSR)", "Triton", "cuBLAS")


@pytest.mark.figure("fig17")
def test_fig17_block_pruned_spmm(benchmark, device):
    model = GPUModel(device)
    densities = density_sweep("block")

    def run():
        dense_time = model.estimate(
            gemm_workload(ROWS, SEQUENCE_LENGTH, COLS, device, dtype="float16")
        ).duration_us
        table = {}
        for density in densities:
            weight = block_pruned_weight(ROWS, COLS, BLOCK, density, seed=0)
            bsr = BSRMatrix.from_csr(weight, BLOCK)
            dbsr = DBSRMatrix.from_bsr(bsr)
            table[density] = {
                "SparseTIR(BSR)": dense_time
                / model.estimate(pruned_spmm_bsr_workload(bsr, SEQUENCE_LENGTH, device)).duration_us,
                "SparseTIR(DBSR)": dense_time
                / model.estimate(pruned_spmm_dbsr_workload(dbsr, SEQUENCE_LENGTH, device)).duration_us,
                "Triton": dense_time
                / model.estimate(triton.bsrmm_workload(bsr, SEQUENCE_LENGTH, device)).duration_us,
                "cuBLAS": 1.0,
            }
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)

    print(f"\n=== Figure 17 (simulated {device.name}): block-pruned SpMM speedup vs cuBLAS ===")
    header = f"{'density':>10}" + "".join(f"{s:>18}" for s in SYSTEMS)
    print(header)
    for density in densities:
        row = table[density]
        print(f"{density:>10.4f}" + "".join(f"{row[s]:>18.2f}" for s in SYSTEMS))

    # Shape checks from the paper: DBSR consistently beats BSR (it skips the
    # empty block rows), SparseTIR's DBSR kernel beats Triton's BSRMM, and the
    # advantage over the dense GEMM grows as density falls.
    for density in densities:
        assert table[density]["SparseTIR(DBSR)"] >= table[density]["SparseTIR(BSR)"] * 0.99
        assert table[density]["SparseTIR(DBSR)"] >= table[density]["Triton"]
    assert table[densities[0]]["SparseTIR(DBSR)"] > table[densities[-1]]["SparseTIR(DBSR)"]
    assert table[densities[0]]["SparseTIR(DBSR)"] > 1.0
