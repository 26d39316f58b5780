"""Sparse operators evaluated in the paper.

Each operator module provides up to four layers:

* ``*_reference`` — NumPy ground-truth implementations used for correctness;
* executable entry points (``spmm``, ``sddmm``, ``pruned_spmm``,
  ``batched_spmm``, ``batched_sddmm``, ``rgms``, ``sparse_conv``) — compile
  the stage-I program and run it through a compile-once/run-many
  :class:`~repro.runtime.session.Session` (compiled kernels, structural
  kernel cache) returning plain arrays;
* ``build_*_program`` — SparseTIR stage-I programs compiled through the full
  pipeline (used by tests and examples);
* ``*_workload`` — analytic :class:`~repro.perf.workload.KernelWorkload`
  descriptions of the scheduled GPU kernels, evaluated by the performance
  model to regenerate the paper's figures.
"""

from . import batched, pruned_spmm, rgms, sddmm, sparse_conv, spmm

__all__ = ["spmm", "sddmm", "batched", "rgms", "sparse_conv", "pruned_spmm"]
