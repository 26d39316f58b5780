"""The simulated world: everything that prices a device nobody here has.

This package substitutes for the NVIDIA V100 / RTX 3070 hardware used in the
paper's evaluation and produces the fig. 12-23 numbers.  :mod:`~repro.sim.ops`,
:mod:`~repro.sim.baselines` and :mod:`~repro.sim.models` describe each kernel
launch of SparseTIR's schedules, of the systems the paper compares against and
of the end-to-end models as a :class:`~repro.sim.workload.KernelWorkload`
(thread-block groups with their FLOP counts, DRAM traffic, shared-memory usage
and execution features); the :class:`~repro.sim.gpu_model.GPUModel` estimates
execution time from occupancy, whole-device roofline costs, a
load-balance-aware critical-path bound on the heaviest block, tensor-core
throughput and kernel-launch overhead.  A set-associative cache simulator
provides the L1/L2 hit rates reported in Figure 12, :mod:`~repro.sim.learned`
layers a corpus-trained residual corrector on top of the analytic estimate,
and :func:`cuda_source` / :func:`profile_kernel` read a compiled kernel's IR.

The dependency runs one way: ``repro.sim`` imports ``ops``, ``formats``,
``models`` and ``core``; of the code that *runs* programs only ``repro.tune``
imports it (phase 1 of the autoscheduler is the simulated ranking), and
``tests/test_import_wall.py`` holds that line.
"""

from .cuda_like import cuda_source
from .device import RTX3070, V100, DeviceSpec
from .gpu_model import GPUModel, PerfReport, estimate_us, profile_kernel
from .learned import FEATURE_NAMES, FEATURE_VERSION, RidgeCostModel, workload_features
from .workload import BlockGroup, KernelWorkload

__all__ = [
    "DeviceSpec",
    "V100",
    "RTX3070",
    "GPUModel",
    "PerfReport",
    "estimate_us",
    "profile_kernel",
    "cuda_source",
    "KernelWorkload",
    "BlockGroup",
    "FEATURE_NAMES",
    "FEATURE_VERSION",
    "RidgeCostModel",
    "workload_features",
]
