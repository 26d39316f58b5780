"""End-to-end models used in the paper's evaluation.

* :mod:`graphsage` — GraphSAGE training (Section 4.2.3, Figure 15).
* :mod:`rgcn` — Relational GCN inference (Section 4.4.1, Figure 20).
* :mod:`minkowski` — a MinkowskiNet-style sparse-convolution backbone
  (Section 4.4.2, Figure 23).

Each model provides a NumPy implementation (forward, and backward where the
experiment trains) plus an execution-time estimator that composes the
operator workload models of :mod:`repro.ops` and :mod:`repro.baselines`.
"""

from .._lazy import lazy_exports

__all__ = ["graphsage", "rgcn", "minkowski"]

__getattr__ = lazy_exports(globals(), dict.fromkeys(__all__))
