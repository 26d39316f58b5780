"""Backend-tier contract: the native tier agrees with the emitted tier, bit for bit.

Unlike the other benchmark modules (which drive the GPU *performance model*),
this one executes real kernels: the fig-13 (graph SpMM, CSR and hyb), fig-14
(graph SDDMM) and fig-16 (sparse-attention SDDMM + SpMM) programs are built
once per structure through a :class:`Session` and run on both compiled tiers.
Every output of the native (compiled C) kernel must have the dtype of, and be
``np.array_equal`` to, the emitted NumPy kernel's.  On a machine without a C
toolchain the native tier must report itself unavailable — a decline with a
reason, never an error — and the program still runs on the emitted tier.

``test_backend_smoke`` runs tiny shapes, ``test_backend_full`` the paper-scale
ones (``slow``).  Nothing here is timed: how fast the tiers are, next to SciPy,
is ``python3 bench/run.py --workload eager-small`` / ``eager-large``.
"""

import numpy as np
import pytest

from repro.core.codegen import UnsupportedForEmission
from repro.core.codegen.native import toolchain_available, unavailable
from repro.ops.batched import build_batched_sddmm_program, build_batched_spmm_program
from repro.ops.sddmm import build_sddmm_program
from repro.ops.spmm import build_spmm_hyb_program, build_spmm_program
from repro.runtime.session import Session
from repro.workloads.attention import band_mask
from repro.workloads.graphs import generate_adjacency

SMOKE_SHAPES = {
    "fig13-spmm": [(200, 1_600, 16)],  # nodes, edges, feat
    "fig14-sddmm": [(200, 1_600, 16)],
    "fig16-attention": [(128, 16, 2, 8)],  # seq, band, heads, feat
}

FULL_SHAPES = {
    "fig13-spmm": [(1_000, 15_000, 16), (2_000, 30_000, 32), (5_000, 60_000, 32)],
    "fig14-sddmm": [(2_000, 30_000, 32)],
    "fig16-attention": [(512, 64, 4, 32)],
}


def _check_tiers(kernel, workload):
    emitted = kernel.run(engine="emitted")
    if not toolchain_available():
        with pytest.raises(UnsupportedForEmission):
            kernel.run(engine="native")
        assert kernel.declined["native"] == unavailable(), workload
        assert kernel.fast_tier() == "emitted", workload
        return
    native = kernel.run(engine="native")
    assert kernel.last_engine == "native", workload
    assert set(native) == set(emitted), workload
    for name in native:
        assert emitted[name].dtype == native[name].dtype, (workload, name)
        assert np.array_equal(emitted[name], native[name]), (workload, name)


def _run_suite(shapes):
    session = Session(persistent=False)
    rng = np.random.default_rng(0)

    for nodes, edges, feat in shapes["fig13-spmm"]:
        graph = generate_adjacency(nodes, edges, "powerlaw", seed=1)
        feats = rng.standard_normal((graph.cols, feat)).astype(np.float32)
        workload = f"powerlaw-n{nodes}-e{edges}-f{feat}"
        _check_tiers(session.build(build_spmm_program(graph, feat, feats)), workload + "-csr")
        hyb = session.decompose_hyb(graph, num_col_parts=1)
        _check_tiers(session.build(build_spmm_hyb_program(hyb, feat, feats)), workload + "-hyb")

    for nodes, edges, feat in shapes["fig14-sddmm"]:
        graph = generate_adjacency(nodes, edges, "powerlaw", seed=2)
        x = rng.standard_normal((graph.rows, feat)).astype(np.float32)
        y = rng.standard_normal((feat, graph.cols)).astype(np.float32)
        kernel = session.build(build_sddmm_program(graph, feat, x, y, fuse_ij=True))
        _check_tiers(kernel, f"powerlaw-n{nodes}-e{edges}-f{feat}-sddmm")

    for seq, band, heads, feat in shapes["fig16-attention"]:
        mask = band_mask(seq, band)
        workload = f"band-s{seq}-b{band}-h{heads}-f{feat}"
        q = rng.standard_normal((heads, seq, feat)).astype(np.float32)
        k = rng.standard_normal((heads, feat, seq)).astype(np.float32)
        kernel = session.build(
            build_batched_sddmm_program(mask, heads, feat, q, k, scale=1.0 / np.sqrt(feat))
        )
        _check_tiers(kernel, workload + "-sddmm")
        v = rng.standard_normal((heads, seq, feat)).astype(np.float32)
        kernel = session.build(build_batched_spmm_program(mask, heads, feat, v))
        _check_tiers(kernel, workload + "-spmm")


@pytest.mark.figure("backends")
def test_backend_smoke():
    """Tiny shapes: the CI ``contracts-smoke`` lane."""
    _run_suite(SMOKE_SHAPES)


@pytest.mark.slow
@pytest.mark.figure("backends")
def test_backend_full():
    """Paper-scale shapes."""
    _run_suite(FULL_SHAPES)
