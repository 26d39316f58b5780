"""Sparse operators evaluated in the paper.

Each operator module provides up to three layers:

* ``*_reference`` — NumPy ground-truth implementations used for correctness;
* executable entry points (``spmm``, ``sddmm``, ``pruned_spmm``,
  ``batched_spmm``, ``batched_sddmm``, ``rgms``, ``sparse_conv``) — compile
  the stage-I program and run it through a compile-once/run-many
  :class:`~repro.runtime.session.Session` (compiled kernels, structural
  kernel cache) returning plain arrays;
* ``build_*_program`` — SparseTIR stage-I programs compiled through the full
  pipeline (used by tests and examples).

What the scheduled kernels cost on the simulated V100 — the ``*_workload``
descriptions behind the paper's figures — lives in :mod:`repro.sim.ops`; no
module here imports it.
"""

from . import batched, pruned_spmm, rgms, sddmm, sparse_conv, spmm

__all__ = ["spmm", "sddmm", "batched", "rgms", "sparse_conv", "pruned_spmm"]
