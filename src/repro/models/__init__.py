"""End-to-end models used in the paper's evaluation.

* :mod:`graphsage` — GraphSAGE training (Section 4.2.3, Figure 15).
* :mod:`rgcn` — Relational GCN inference (Section 4.4.1, Figure 20).
* :mod:`minkowski` — a MinkowskiNet-style sparse-convolution backbone
  (Section 4.4.2, Figure 23).

Each model provides a NumPy implementation (forward, and backward where the
experiment trains) and a ``compile`` onto the graph runtime.  The
execution-time estimators of the figures are :mod:`repro.sim.models`.
"""

from .._lazy import lazy_exports

__all__ = ["graphsage", "rgcn", "minkowski"]

__getattr__ = lazy_exports(globals(), dict.fromkeys(__all__))
