"""Synthetic workload generators standing in for the paper's datasets.

The original evaluation uses OGB / DGL graph datasets, RDF heterogeneous
graphs, HuggingFace pruned-BERT checkpoints and the SemanticKITTI point-cloud
dataset — none of which can be downloaded in this offline environment.  Each
generator reproduces the structural statistics that drive the performance
phenomena the paper studies (node/edge counts — scaled down where noted —
degree skew, relation counts and imbalance, block-sparsity patterns, pruning
densities, voxel occupancy), and the Tables 1/2 benchmarks report the
resulting statistics next to the paper's numbers.
"""

from .._lazy import lazy_exports

__all__ = ["graphs", "hetero_graphs", "attention", "pruning", "pointcloud"]

__getattr__ = lazy_exports(globals(), dict.fromkeys(__all__))
