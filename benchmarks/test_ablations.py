"""Ablation benchmarks for the design choices called out in DESIGN.md.

* composable formats (hyb) on/off for SpMM — the Figure 13 ablation;
* composable transformations (vectorize + rfactor) on/off for SDDMM — the
  Figure 14 ablation;
* composable formats and tensorisation on/off for RGMS — the Figure 20
  ablation (naive vs hyb vs hyb+TC);
* horizontal fusion on/off — the kernel-launch overhead the Section 3.5 pass
  removes.

Every duration is a *simulated V100* (or RTX 3070) time from the analytic model of
``repro.sim`` — no kernel is run or timed here.
"""

import pytest

from repro.formats.hyb import HybFormat
from repro.ops.rgms import RGMSProblem
from repro.sim.gpu_model import GPUModel
from repro.sim.ops.rgms import rgms_fused_hyb_workload, rgms_naive_workload
from repro.sim.ops.sddmm import sddmm_workload
from repro.sim.ops.spmm import spmm_csr_workload, spmm_hyb_workload
from repro.workloads.graphs import synthetic_graph
from repro.workloads.hetero_graphs import synthetic_hetero_graph


@pytest.mark.figure("ablation-formats")
def test_ablation_composable_formats_spmm(benchmark, device):
    csr = synthetic_graph("ogbn-arxiv", seed=0).to_csr()
    model = GPUModel(device)

    def run():
        hyb = HybFormat.from_csr(csr, num_col_parts=1)
        return {
            "no-hyb": model.estimate(spmm_csr_workload(csr, 128, device)).duration_us,
            "hyb": model.estimate(spmm_hyb_workload(hyb, 128, device)).duration_us,
        }

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nablation (formats, simulated {device.name}): no-hyb {result['no-hyb']:.1f} us, "
          f"hyb {result['hyb']:.1f} us -> {result['no-hyb'] / result['hyb']:.2f}x from decomposition")
    assert result["hyb"] < result["no-hyb"]


@pytest.mark.figure("ablation-transforms")
def test_ablation_composable_transformations_sddmm(benchmark, device):
    csr = synthetic_graph("ppi", seed=0).to_csr()
    model = GPUModel(device)

    def run():
        plain = model.estimate(
            sddmm_workload(csr, 256, device, vector_width=1, two_stage_reduction=False)
        ).duration_us
        vectorised = model.estimate(
            sddmm_workload(csr, 256, device, vector_width=4, two_stage_reduction=False)
        ).duration_us
        full = model.estimate(
            sddmm_workload(csr, 256, device, vector_width=4, two_stage_reduction=True)
        ).duration_us
        return {"plain": plain, "+vectorize": vectorised, "+rfactor": full}

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nablation (transforms, simulated {device.name}): plain {result['plain']:.1f} us, "
          f"+vectorize {result['+vectorize']:.1f} us, +rfactor {result['+rfactor']:.1f} us")
    assert result["+vectorize"] < result["plain"]
    assert result["+rfactor"] <= result["+vectorize"]


@pytest.mark.figure("ablation-rgms")
def test_ablation_rgms_formats_and_tensorisation(benchmark, device):
    graph = synthetic_hetero_graph("bgs", seed=0)
    problem = RGMSProblem(graph.adjacency, 32, 32)
    model = GPUModel(device)

    def run():
        return {
            "naive": model.estimate(rgms_naive_workload(problem, device)).duration_us,
            "hyb": model.estimate(
                rgms_fused_hyb_workload(problem, device, use_tensor_cores=False)
            ).duration_us,
            "hyb+TC": model.estimate(
                rgms_fused_hyb_workload(problem, device, use_tensor_cores=True)
            ).duration_us,
        }

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nablation (RGMS, simulated {device.name}): naive {result['naive']:.1f} us, "
          f"hyb {result['hyb']:.1f} us, hyb+TC {result['hyb+TC']:.1f} us")
    assert result["hyb"] < result["naive"]
    assert result["hyb+TC"] < result["hyb"]


@pytest.mark.figure("ablation-fusion")
def test_ablation_horizontal_fusion(benchmark, device):
    csr = synthetic_graph("cora", seed=0).to_csr()
    model = GPUModel(device)

    def run():
        hyb = HybFormat.from_csr(csr, num_col_parts=2)
        fused = model.estimate(
            spmm_hyb_workload(hyb, 32, device, horizontal_fusion=True)
        ).duration_us
        unfused = model.estimate(
            spmm_hyb_workload(hyb, 32, device, horizontal_fusion=False)
        ).duration_us
        return {"fused": fused, "unfused": unfused, "buckets": len(hyb.buckets)}

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nablation (horizontal fusion, simulated {device.name}): {result['buckets']} bucket kernels, "
          f"unfused {result['unfused']:.1f} us vs fused {result['fused']:.1f} us")
    assert result["fused"] < result["unfused"]
