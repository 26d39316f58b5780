"""repro: a from-scratch reproduction of SparseTIR (ASPLOS 2023).

The package implements composable sparse formats, the three-stage SparseTIR
IR with composable transformations, a NumPy execution backend, a simulated
GPU performance model, the sparse operators and baselines evaluated in the
paper, synthetic workload generators, end-to-end GNN models, and a format /
schedule auto-tuner.

Quick start::

    import numpy as np
    from repro.runtime import Session
    from repro.workloads.graphs import feature_matrix, synthetic_graph

    graph = synthetic_graph("cora", seed=0)
    csr = graph.to_csr()
    session = Session()  # compile-once/run-many: cached formats + kernels
    result = session.spmm(csr, feature_matrix(csr.cols, 32), format="hyb")
"""

from ._lazy import lazy_exports

__version__ = "0.1.0"

__all__ = ["core", "__version__"]

__getattr__ = lazy_exports(globals(), {"core": None})
