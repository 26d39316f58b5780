"""Baseline systems the paper compares against.

Each baseline is implemented as a concrete kernel strategy — the format it
uses, how it maps work to thread blocks, and which optimisations it applies
(vectorised loads, register caching, two-stage reductions, tensor cores,
intermediate materialisation) — evaluated on the same GPU performance model
as the SparseTIR kernels.  The modelled characteristics are documented in
each module and come from the baselines' papers or source code:

* ``cusparse``   — NVIDIA cuSPARSE CSR SpMM/SDDMM and CSRMM.
* ``dgsparse``   — dgSPARSE (GE-SpMM SpMM, PRedS SDDMM).
* ``sputnik``    — Sputnik's 1-D tiled SpMM/SDDMM for deep learning sparsity.
* ``taco``       — TACO with the Senanayake et al. scheduling extension.
* ``dgl``        — DGL / FeatGraph kernels plus framework overhead.
* ``pyg``        — PyTorch Geometric (gather/scatter based message passing).
* ``graphiler``  — Graphiler's compiled message-passing data-flow graph.
* ``triton``     — Triton block-sparse matmul kernels.
* ``cublas``     — dense cuBLAS GEMM (the dense baseline for pruned models).
* ``torchsparse``— TorchSparse gather-GEMM-scatter sparse convolution.
"""

from . import cublas, cusparse, dgl, dgsparse, graphiler, pyg, sputnik, taco, torchsparse, triton

__all__ = [
    "cusparse", "dgsparse", "sputnik", "taco", "dgl", "pyg", "graphiler", "triton", "cublas",
    "torchsparse",
]
