"""Sparse attention operators: Longformer band and Pixelated Butterfly masks.

Builds the two block-sparse attention masks of Section 4.3.1, *executes* one
multi-head attention step (SDDMM -> scaling -> SpMM) end-to-end through a
compile-once/run-many Session on a reduced configuration, and compares the
SparseTIR BSR (Tensor Core) and CSR kernels against Triton's block-sparse
baseline at the paper's full configuration (4096 sequence length, band 256,
12 heads, 64-dimensional heads).

Run with:  python examples/sparse_attention.py
"""

import numpy as np

from repro.formats import BSRMatrix
from repro.ops.batched import batched_sddmm_reference, batched_spmm_reference
from repro.runtime import Session
from repro.sim.baselines import triton
from repro.sim.device import V100
from repro.sim.gpu_model import GPUModel
from repro.sim.ops.batched import (
    batched_sddmm_bsr_workload,
    batched_spmm_bsr_workload,
    batched_spmm_csr_workload,
)
from repro.workloads.attention import AttentionConfig, band_mask, butterfly_mask


def run_attention_step() -> None:
    """One masked attention step through the Session runtime (reduced size).

    SDDMM produces the scaled per-head scores at the mask's non-zeros, and
    the aggregation re-uses those scores as the sparse values of a per-head
    SpMM (softmax is omitted); every kernel runs through one
    compile-once/run-many session, so the per-head SpMMs after the first are
    pure kernel-cache hits (same structure, rebound score values).
    """
    heads, seq, dim, block = 4, 128, 16, 8
    mask = band_mask(seq_len=seq, band_size=32, block_size=block)
    rng = np.random.default_rng(0)
    q = rng.standard_normal((heads, seq, dim)).astype(np.float32)
    k = rng.standard_normal((heads, dim, seq)).astype(np.float32)
    v = rng.standard_normal((heads, seq, dim)).astype(np.float32)

    session = Session()
    # Scores at the mask's non-zeros, scaled by 1/sqrt(d) inside the kernel.
    scores = session.batched_sddmm(mask, q, k, format="bsr", block_size=block,
                                   scale=1.0 / np.sqrt(dim))
    assert np.allclose(
        scores, batched_sddmm_reference(mask, q, k) / np.sqrt(dim), atol=1e-4
    )
    # Aggregate the values with the computed scores: one SpMM per head over
    # the shared structure — head h rebinds S[h] as the sparse values.
    from repro.formats import CSRMatrix

    out = np.stack([
        session.spmm(
            CSRMatrix(mask.shape, mask.indptr, mask.indices, data=scores[h]), v[h]
        )
        for h in range(heads)
    ])
    expected = batched_spmm_reference(
        CSRMatrix(mask.shape, mask.indptr, mask.indices, data=scores[0]), v[:1]
    )
    assert np.allclose(out[0], expected[0], atol=1e-4)

    stats = session.stats.as_dict()
    print(f"attention step ({heads} heads, seq {seq}, dim {dim}) executed "
          f"through the Session runtime:")
    print(f"  engines: {stats['native_runs']} native, "
          f"{stats['emitted_runs']} emitted, "
          f"{stats['interpreted_runs']} interpreted")
    print(f"  kernel cache: {stats['kernel_cache_misses']} misses, "
          f"{stats['kernel_cache_hits']} hits "
          f"(heads 2-{heads} of the aggregation rebind values on one build); "
          f"format cache: {stats['format_cache_misses']} misses, "
          f"{stats['format_cache_hits']} hits")

    # Rerun with fresh inputs: same structures, so every build is a hit.
    session.batched_sddmm(mask, q + 1, k, format="bsr", block_size=block,
                          scale=1.0 / np.sqrt(dim))
    stats = session.stats.as_dict()
    print(f"  after rerun: {stats['kernel_cache_hits']} kernel cache hits, "
          f"{stats['format_cache_hits']} format cache hits")


def main() -> None:
    run_attention_step()

    config = AttentionConfig()
    model = GPUModel(V100)
    for pattern_name, mask in (
        ("longformer(band)", band_mask(config.seq_len, config.band_size, config.block_size)),
        ("butterfly", butterfly_mask(config.seq_len, config.block_size)),
    ):
        bsr = BSRMatrix.from_csr(mask, config.block_size)
        print(f"\n=== {pattern_name}: {mask.nnz} non-zeros, {bsr.num_blocks} blocks ===")
        results = {
            "Triton (SpMM)": model.estimate(
                triton.blocksparse_spmm_workload(bsr, config.head_dim, config.num_heads, V100)
            ),
            "SparseTIR-CSR (SpMM)": model.estimate(
                batched_spmm_csr_workload(mask, config.head_dim, config.num_heads, V100)
            ),
            "SparseTIR-BSR (SpMM)": model.estimate(
                batched_spmm_bsr_workload(bsr, config.head_dim, config.num_heads, V100)
            ),
            "Triton (SDDMM)": model.estimate(
                triton.blocksparse_sddmm_workload(bsr, config.head_dim, config.num_heads, V100)
            ),
            "SparseTIR-BSR (SDDMM)": model.estimate(
                batched_sddmm_bsr_workload(bsr, config.head_dim, config.num_heads, V100)
            ),
        }
        spmm_base = results["Triton (SpMM)"].duration_us
        sddmm_base = results["Triton (SDDMM)"].duration_us
        for name, report in results.items():
            base = sddmm_base if "SDDMM" in name else spmm_base
            print(f"{name:<24s} {report.duration_us:>10.1f} us   {base / report.duration_us:>6.2f}x vs Triton")


if __name__ == "__main__":
    main()
