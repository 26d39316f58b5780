"""Figure 19: SpMM on unstructured (movement) pruned BERT weights vs density,
plus the new-format density of SR-BCRS and BSR (right panel).

Every duration is a *simulated V100* (or RTX 3070) time from the analytic model of
``repro.sim`` — no kernel is run or timed here.
"""

import pytest

from repro.formats import BSRMatrix, SRBCRSMatrix
from repro.sim.baselines.cublas import gemm_workload
from repro.sim.baselines.cusparse import csrmm_pruned_workload
from repro.sim.gpu_model import GPUModel
from repro.sim.ops.pruned_spmm import pruned_spmm_bsr_workload, pruned_spmm_srbcrs_workload
from repro.workloads.pruning import SEQUENCE_LENGTH, density_sweep, unstructured_pruned_weight

ROWS, COLS = 768, 768
SYSTEMS = ("SparseTIR(SR-BCRS)", "SparseTIR(BSR)", "cuSPARSE", "cuBLAS")


@pytest.mark.figure("fig19")
def test_fig19_unstructured_pruned_spmm(benchmark, device):
    model = GPUModel(device)
    densities = density_sweep("unstructured")

    def run():
        dense_time = model.estimate(
            gemm_workload(ROWS, SEQUENCE_LENGTH, COLS, device, dtype="float16")
        ).duration_us
        table = {}
        formats = {}
        for density in densities:
            weight = unstructured_pruned_weight(ROWS, COLS, density, seed=0)
            sr = SRBCRSMatrix(weight, tile_rows=8, group_size=32)
            bsr = BSRMatrix.from_csr(weight, 32)
            table[density] = {
                "SparseTIR(SR-BCRS)": dense_time
                / model.estimate(pruned_spmm_srbcrs_workload(sr, SEQUENCE_LENGTH, device)).duration_us,
                "SparseTIR(BSR)": dense_time
                / model.estimate(pruned_spmm_bsr_workload(bsr, SEQUENCE_LENGTH, device)).duration_us,
                "cuSPARSE": dense_time
                / model.estimate(csrmm_pruned_workload(weight, SEQUENCE_LENGTH, device)).duration_us,
                "cuBLAS": 1.0,
            }
            formats[density] = {
                "SR-BCRS(8,32)": sr.new_format_density,
                "BSR(32)": bsr.nnz_stored / (ROWS * COLS),
                "original": weight.density,
            }
        return table, formats

    table, formats = benchmark.pedantic(run, rounds=1, iterations=1)

    print(f"\n=== Figure 19 (simulated {device.name}): unstructured pruned SpMM speedup vs cuBLAS ===")
    print(f"{'density':>10}" + "".join(f"{s:>20}" for s in SYSTEMS))
    for density in densities:
        row = table[density]
        print(f"{density:>10.4f}" + "".join(f"{row[s]:>20.2f}" for s in SYSTEMS))

    print("\n--- new-format density (right panel of Figure 19) ---")
    print(f"{'density':>10}{'SR-BCRS(8,32)':>16}{'BSR(32)':>12}")
    for density in densities:
        print(f"{density:>10.4f}{formats[density]['SR-BCRS(8,32)']:>16.3f}"
              f"{formats[density]['BSR(32)']:>12.3f}")

    # Shape checks: SR-BCRS beats BSR at low densities (less fragmentation)
    # and SR-BCRS re-expresses the matrix at far lower density than BSR.
    lowest = densities[0]
    assert table[lowest]["SparseTIR(SR-BCRS)"] > table[lowest]["SparseTIR(BSR)"]
    assert formats[lowest]["SR-BCRS(8,32)"] < formats[lowest]["BSR(32)"]
    assert table[lowest]["SparseTIR(SR-BCRS)"] > 1.0
    # The dense GEMM catches up as density rises (crossover trend).
    assert table[densities[-1]]["SparseTIR(SR-BCRS)"] < table[lowest]["SparseTIR(SR-BCRS)"]
