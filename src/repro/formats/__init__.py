"""Sparse matrix formats and conversions used by the SparseTIR reproduction.

Every format class stores its compressed arrays explicitly (NumPy), can
convert to/from SciPy CSR, exposes padding/occupancy statistics, and can
produce the SparseTIR axes that describe it so that programs over the format
can be built and lowered through the compilation pipeline.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "CONVERSIONS": ".conversion",
    "conversion_targets": ".conversion",
    "convert": ".conversion",
    "roundtrip_dense": ".conversion",
    "CSRMatrix": ".csr",
    "CSCMatrix": ".csc",
    "COOMatrix": ".coo",
    "BSRMatrix": ".bsr",
    "ELLMatrix": ".ell",
    "DIAMatrix": ".dia",
    "RaggedTensor": ".ragged",
    "CSFTensor": ".csf",
    "HybFormat": ".hyb",
    "HybBucket": ".hyb",
    "DBSRMatrix": ".dbsr",
    "SRBCRSMatrix": ".srbcrs",
    "padding_ratio_hyb": ".padding",
    "padding_ratio_percent": ".padding",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(globals(), _EXPORTS)
