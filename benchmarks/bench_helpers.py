"""Workload-construction helpers shared by the benchmark modules.

Every system's duration is priced on the *simulated V100* (or RTX 3070) of
``repro.sim``; nothing here runs or times a kernel.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.formats import CSRMatrix, HybFormat
from repro.sim.baselines import cusparse, dgl, dgsparse, sputnik, taco
from repro.sim.device import DeviceSpec
from repro.sim.gpu_model import GPUModel
from repro.sim.ops.sddmm import sddmm_workload
from repro.sim.ops.spmm import spmm_csr_workload, spmm_hyb_workload

#: Feature sizes swept in the SpMM / SDDMM figures.
FEATURE_SIZES = (32, 64, 128, 256, 512)


def geomean(values):
    product = 1.0
    count = 0
    for value in values:
        product *= value
        count += 1
    return product ** (1.0 / count) if count else 0.0


def spmm_system_durations(
    csr: CSRMatrix,
    feat_size: int,
    device: DeviceSpec,
    hyb: Optional[HybFormat] = None,
    hyb_threads: int = 128,
) -> Dict[str, float]:
    """Estimated SpMM durations (us) for every system of Figure 13."""
    model = GPUModel(device)
    hyb = hyb or HybFormat.from_csr(csr, num_col_parts=1)
    return {
        "cuSPARSE": model.estimate(cusparse.spmm_workload(csr, feat_size, device)).duration_us,
        "Sputnik": model.estimate(sputnik.spmm_workload(csr, feat_size, device)).duration_us,
        "dgSPARSE": model.estimate(dgsparse.spmm_workload(csr, feat_size, device)).duration_us,
        "TACO": model.estimate(taco.spmm_workload(csr, feat_size, device)).duration_us,
        "SparseTIR(no-hyb)": model.estimate(
            spmm_csr_workload(csr, feat_size, device)
        ).duration_us,
        "SparseTIR(hyb)": model.estimate(
            spmm_hyb_workload(hyb, feat_size, device, threads_per_block=hyb_threads)
        ).duration_us,
    }


def sddmm_system_durations(csr: CSRMatrix, feat_size: int, device: DeviceSpec) -> Dict[str, float]:
    """Estimated SDDMM durations (us) for every system of Figure 14."""
    model = GPUModel(device)
    return {
        "cuSPARSE": model.estimate(cusparse.sddmm_workload(csr, feat_size, device)).duration_us,
        "Sputnik": model.estimate(
            sputnik.sddmm_workload_graph(csr, feat_size, device)
        ).duration_us,
        "DGL": model.estimate(dgl.sddmm_workload_featgraph(csr, feat_size, device)).duration_us,
        "dgSPARSE-csr": model.estimate(
            dgsparse.sddmm_workload_csr(csr, feat_size, device)
        ).duration_us,
        "dgSPARSE-coo": model.estimate(
            dgsparse.sddmm_workload_coo(csr, feat_size, device)
        ).duration_us,
        "TACO": model.estimate(
            taco.sddmm_workload_scheduled(csr, feat_size, device)
        ).duration_us,
        "SparseTIR": model.estimate(sddmm_workload(csr, feat_size, device)).duration_us,
    }
