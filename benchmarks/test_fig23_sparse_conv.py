"""Figure 23: sparse convolution speedup vs TorchSparse across channel sizes.

Every duration is a *simulated V100* (or RTX 3070) time from the analytic model of
``repro.sim`` — no kernel is run or timed here.
"""

import math

import pytest

from repro.sim.baselines import torchsparse
from repro.sim.gpu_model import GPUModel
from repro.sim.ops.sparse_conv import sparse_conv_fused_tc_workload
from repro.workloads.pointcloud import MINKOWSKINET_CHANNEL_SWEEP, PointCloudConfig, sparse_conv_problem

#: Paper trend (V100): ~2-4x at 32 channels, crossing below 1x above ~128.
PAPER_TREND = {32: 3.0, 64: 2.0, 128: 1.0, 256: 0.6}


@pytest.mark.figure("fig23")
def test_fig23_sparse_convolution(benchmark, device):
    config = PointCloudConfig(num_points=20000, voxel_size=0.4, seed=0)
    model = GPUModel(device)

    def run():
        series = {}
        for cin, cout in MINKOWSKINET_CHANNEL_SWEEP:
            problem = sparse_conv_problem(cin, cout, config)
            ours = model.estimate(sparse_conv_fused_tc_workload(problem, device)).duration_us
            baseline = model.estimate(torchsparse.sparse_conv_workload(problem, device)).duration_us
            series[int(math.sqrt(cin * cout))] = {
                "sparsetir_us": ours,
                "torchsparse_us": baseline,
                "speedup": baseline / ours,
                "points": problem.num_in_points,
            }
        return series

    series = benchmark.pedantic(run, rounds=1, iterations=1)

    print(f"\n=== Figure 23 (simulated {device.name}): sparse convolution speedup vs TorchSparse ===")
    print(f"{'sqrt(Cin*Cout)':>15}{'SparseTIR (us)':>16}{'TorchSparse (us)':>18}{'speedup':>10}{'paper':>8}")
    for channels, row in sorted(series.items()):
        print(f"{channels:>15}{row['sparsetir_us']:>16.1f}{row['torchsparse_us']:>18.1f}"
              f"{row['speedup']:>10.2f}{PAPER_TREND.get(channels, float('nan')):>8.1f}")

    channels = sorted(series)
    speedups = [series[c]["speedup"] for c in channels]
    # Shape: SparseTIR wins at small channel counts; the advantage shrinks
    # monotonically (and eventually disappears) as the GEMM begins to dominate.
    assert speedups[0] > 1.0
    assert speedups[-1] < speedups[0]
    assert all(b <= a * 1.05 for a, b in zip(speedups, speedups[1:]))
