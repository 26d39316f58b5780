"""Sparse-convolution inference through the Session runtime (Section 4.4.2).

Builds a small MinkowskiNet-style backbone over a synthetic voxelised scan,
runs the full forward pass twice through one compile-once/run-many Session —
every layer's gather-GEMM-scatter kernel is compiled on the first pass and a
structural cache hit on the second — verifies the result against the NumPy
reference, and prints the session's engine/cache statistics plus the
per-layer SparseTIR-vs-TorchSparse estimates of Figure 23.

Run with:  python examples/sparse_conv_inference.py
"""

import numpy as np

from repro.models.minkowski import MinkowskiBackbone
from repro.runtime import Session
from repro.sim.device import V100
from repro.sim.models.minkowski import estimate_layer_times
from repro.workloads.pointcloud import PointCloudConfig


def main() -> None:
    config = PointCloudConfig(num_points=2000, voxel_size=0.8, seed=0)
    channel_plan = [(8, 16), (16, 16), (16, 8)]
    backbone = MinkowskiBackbone(channel_plan, config=config, seed=0)
    num_voxels = backbone.layers[0].problem.num_in_points
    print(f"voxelised scan: {num_voxels} voxels, {len(backbone.layers)} layers "
          f"({backbone.layers[0].problem.kernel_volume}-offset kernels)")

    rng = np.random.default_rng(0)
    features = rng.standard_normal((num_voxels, channel_plan[0][0])).astype(np.float32)

    session = Session()
    out = backbone.forward(features, session=session)
    reference = backbone.forward(features)
    assert np.allclose(out, reference, atol=1e-3), "Session forward diverged"
    print(f"forward pass verified against the NumPy reference "
          f"(output {out.shape}, max |err| {np.abs(out - reference).max():.2e})")

    # Second pass: identical structures -> every build is a kernel-cache hit.
    backbone.forward(features, session=session)
    stats = session.stats.as_dict()
    print("\nsession stats after two forward passes:")
    for key, value in stats.items():
        print(f"  {key:<22s} {value}")
    assert stats["kernel_cache_hits"] == len(backbone.layers)

    print("\nper-layer estimates (V100, Figure 23):")
    for index, layer in enumerate(backbone.layers):
        times = estimate_layer_times(layer.problem, V100)
        cin, cout = layer.problem.in_channels, layer.problem.out_channels
        print(f"  layer {index} ({cin:>3d}->{cout:<3d}): "
              f"SparseTIR-TC {times['sparsetir_tc_us']:8.1f} us   "
              f"TorchSparse {times['torchsparse_us']:8.1f} us   "
              f"speedup {times['speedup']:.2f}x")


if __name__ == "__main__":
    main()
