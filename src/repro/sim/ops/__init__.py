"""Analytic workload models of SparseTIR's scheduled kernels, one module per
operator of :mod:`repro.ops`."""

from . import batched, pruned_spmm, rgms, sddmm, sparse_conv, spmm

__all__ = ["spmm", "sddmm", "batched", "rgms", "sparse_conv", "pruned_spmm"]
