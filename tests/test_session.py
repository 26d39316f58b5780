"""Unit tests for the compile-once/run-many Session API."""

import numpy as np
import pytest

from repro.core.codegen.emit_c import toolchain_available
from repro.core.script import ProgramBuilder
from repro.formats import CSRMatrix
from repro.formats.bsr import BSRMatrix
from repro.ops import batched as batched_ops
from repro.ops import pruned_spmm as pruned_ops
from repro.ops import rgms as rgms_ops
from repro.ops import sddmm as sddmm_ops
from repro.ops import sparse_conv as conv_ops
from repro.ops import spmm as spmm_ops
from repro.runtime import Session, get_default_session
from repro.workloads.attention import band_mask
from repro.workloads.hetero_graphs import generate_relational_adjacency
from repro.workloads.pointcloud import PointCloudConfig, sparse_conv_problem


@pytest.fixture
def csr():
    return CSRMatrix.random(rows=18, cols=13, density=0.25, seed=3)


class TestSessionOps:
    def test_spmm_csr(self, csr, rng):
        x = rng.standard_normal((csr.cols, 5)).astype(np.float32)
        session = Session()
        out = session.spmm(csr, x)
        assert out.shape == (csr.rows, 5)
        assert np.allclose(out, spmm_ops.spmm_reference(csr, x), atol=1e-4)
        assert session.stats.fast_runs == 1

    def test_spmm_hyb(self, csr, rng):
        x = rng.standard_normal((csr.cols, 5)).astype(np.float32)
        session = Session()
        out = session.spmm(csr, x, format="hyb", num_col_parts=2)
        assert np.allclose(out, spmm_ops.spmm_reference(csr, x), atol=1e-4)
        assert session.stats.format_cache_misses == 1
        session.spmm(csr, x, format="hyb", num_col_parts=2)
        assert session.stats.format_cache_hits == 1
        assert session.stats.kernel_cache_hits == 1

    def test_spmm_unknown_format(self, csr, rng):
        with pytest.raises(ValueError):
            Session().spmm(csr, rng.standard_normal((csr.cols, 2)), format="coo")

    def test_sddmm(self, csr, rng):
        x = rng.standard_normal((csr.rows, 4)).astype(np.float32)
        y = rng.standard_normal((4, csr.cols)).astype(np.float32)
        out = Session().sddmm(csr, x, y)
        assert out.shape == (csr.nnz,)
        assert np.allclose(out, sddmm_ops.sddmm_reference(csr, x, y), atol=1e-4)

    def test_pruned_spmm(self, rng):
        dense = (rng.random((12, 20)) < 0.3).astype(np.float32) * rng.standard_normal(
            (12, 20)
        ).astype(np.float32)
        bsr = BSRMatrix.from_dense(dense, 4)
        x = rng.standard_normal((bsr.shape[1], 3)).astype(np.float32)
        out = Session().pruned_spmm(bsr, x)
        assert np.allclose(out, pruned_ops.pruned_spmm_reference(bsr, x), atol=1e-4)


class TestBatchedAttentionOps:
    @pytest.fixture(scope="class")
    def mask(self):
        return band_mask(seq_len=32, band_size=8, block_size=4)

    def test_batched_spmm_csr_bit_exact_and_vectorized(self, mask, rng):
        feats = rng.standard_normal((3, mask.cols, 5)).astype(np.float32)
        session = Session()
        out = session.batched_spmm(mask, feats)
        assert out.shape == (3, mask.rows, 5)
        assert np.array_equal(out, batched_ops.batched_spmm_reference(mask, feats))
        assert session.stats.fast_runs == 1
        assert session.stats.interpreted_runs == 0

    def test_batched_spmm_bsr_bit_exact(self, mask, rng):
        feats = rng.standard_normal((2, mask.cols, 4)).astype(np.float32)
        session = Session()
        out = session.batched_spmm(mask, feats, format="bsr", block_size=4)
        assert np.array_equal(out, batched_ops.batched_spmm_reference(mask, feats))
        assert session.stats.fast_runs == 1

    def test_batched_spmm_rejects_bad_inputs(self, mask, rng):
        session = Session()
        with pytest.raises(ValueError):
            session.batched_spmm(mask, rng.standard_normal((mask.cols, 4)))
        with pytest.raises(ValueError):
            session.batched_spmm(mask, rng.standard_normal((2, mask.cols + 1, 4)))
        with pytest.raises(ValueError):
            session.batched_spmm(
                mask, rng.standard_normal((2, mask.cols, 4)), format="ell"
            )

    def test_batched_sddmm_csr(self, mask, rng):
        q = rng.standard_normal((2, mask.rows, 4)).astype(np.float32)
        k = rng.standard_normal((2, 4, mask.cols)).astype(np.float32)
        session = Session()
        out = session.batched_sddmm(mask, q, k)
        ref = batched_ops.batched_sddmm_reference(mask, q, k)
        assert out.shape == (2, mask.nnz)
        assert np.allclose(out, ref, atol=1e-5)
        assert session.stats.fast_runs == 1

    def test_batched_sddmm_bsr_matches_csr_order(self, mask, rng):
        q = rng.standard_normal((2, mask.rows, 4)).astype(np.float32)
        k = rng.standard_normal((2, 4, mask.cols)).astype(np.float32)
        out = Session().batched_sddmm(mask, q, k, format="bsr", block_size=4)
        ref = batched_ops.batched_sddmm_reference(mask, q, k)
        assert np.allclose(out, ref, atol=1e-5)

    def test_batched_sddmm_scale_runs_vectorized(self, mask, rng):
        q = rng.standard_normal((2, mask.rows, 4)).astype(np.float32)
        k = rng.standard_normal((2, 4, mask.cols)).astype(np.float32)
        session = Session()
        scaled = session.batched_sddmm(mask, q, k, scale=0.5)
        plain = session.batched_sddmm(mask, q, k)
        assert np.allclose(scaled, 0.5 * plain, atol=1e-6)
        # The in-kernel rescaling nest must not force an interpreter fallback.
        assert session.stats.interpreted_runs == 0

    def test_batched_sddmm_bsr_requires_block_alignment(self, rng):
        csr = CSRMatrix.random(rows=16, cols=16, density=0.2, seed=7)
        with pytest.raises(ValueError):
            Session().batched_sddmm(
                csr,
                rng.standard_normal((1, 16, 2)).astype(np.float32),
                rng.standard_normal((1, 2, 16)).astype(np.float32),
                format="bsr",
                block_size=4,
            )

    def test_engines_agree_bit_exactly(self, mask, rng):
        q = rng.standard_normal((2, mask.rows, 3)).astype(np.float32)
        k = rng.standard_normal((2, 3, mask.cols)).astype(np.float32)
        session = Session()
        fast = session.batched_sddmm(mask, q, k)
        assert session.stats.interpreted_runs == 0
        slow = Session(engine="interpret").batched_sddmm(mask, q, k)
        assert np.array_equal(fast, slow)

    def test_repeated_calls_hit_caches(self, mask, rng):
        session = Session()
        for step in range(3):
            feats = rng.standard_normal((2, mask.cols, 4)).astype(np.float32)
            session.batched_spmm(mask, feats, format="bsr", block_size=4)
        assert session.stats.kernel_cache_misses == 1
        assert session.stats.kernel_cache_hits == 2
        assert session.stats.format_cache_misses == 1
        assert session.stats.format_cache_hits == 2

    def test_module_level_entry_points(self, mask, rng):
        feats = rng.standard_normal((2, mask.cols, 3)).astype(np.float32)
        out = batched_ops.batched_spmm(mask, feats)
        assert np.array_equal(out, batched_ops.batched_spmm_reference(mask, feats))
        q = rng.standard_normal((2, mask.rows, 3)).astype(np.float32)
        k = rng.standard_normal((2, 3, mask.cols)).astype(np.float32)
        out = batched_ops.batched_sddmm(mask, q, k)
        assert np.allclose(
            out, batched_ops.batched_sddmm_reference(mask, q, k), atol=1e-5
        )


class TestRGMSAndSparseConvOps:
    @pytest.fixture(scope="class")
    def adjacency(self):
        return generate_relational_adjacency(
            num_nodes=48, num_edges=300, num_relations=5, seed=4
        )

    @pytest.fixture(scope="class")
    def conv_problem(self):
        return sparse_conv_problem(
            6, 7, PointCloudConfig(num_points=300, voxel_size=1.0, seed=5)
        )

    def test_rgms_matches_reference(self, adjacency, rng):
        x = rng.standard_normal((48, 6)).astype(np.float32)
        w = rng.standard_normal((5, 6, 4)).astype(np.float32)
        session = Session()
        out = session.rgms(adjacency, x, w)
        assert out.shape == (48, 4)
        assert np.allclose(out, rgms_ops.rgms_reference(adjacency, x, w), atol=1e-4)
        assert session.stats.fast_runs == 1

    def test_rgms_engines_agree_bit_exactly(self, adjacency, rng):
        x = rng.standard_normal((48, 6)).astype(np.float32)
        w = rng.standard_normal((5, 6, 4)).astype(np.float32)
        session = Session()
        fast = session.rgms(adjacency, x, w)
        assert session.stats.interpreted_runs == 0
        slow = Session(engine="interpret").rgms(adjacency, x, w)
        assert np.array_equal(fast, slow)

    def test_rgms_repeated_calls_hit_kernel_cache(self, adjacency, rng):
        session = Session()
        w = rng.standard_normal((5, 6, 4)).astype(np.float32)
        for _ in range(2):
            session.rgms(adjacency, rng.standard_normal((48, 6)).astype(np.float32), w)
        assert session.stats.kernel_cache_misses == 1
        assert session.stats.kernel_cache_hits == 1

    def test_rgms_validates_shapes(self, adjacency, rng):
        with pytest.raises(ValueError):
            Session().rgms(adjacency, rng.standard_normal(48), rng.standard_normal((5, 6, 4)))
        with pytest.raises(ValueError):
            Session().rgms(
                adjacency, rng.standard_normal((48, 6)), rng.standard_normal((3, 6, 4))
            )

    def test_sparse_conv_matches_reference(self, conv_problem, rng):
        feats = rng.standard_normal(
            (conv_problem.num_in_points, conv_problem.in_channels)
        ).astype(np.float32)
        weights = rng.standard_normal(
            (conv_problem.kernel_volume, conv_problem.in_channels, conv_problem.out_channels)
        ).astype(np.float32)
        session = Session()
        out = session.sparse_conv(conv_problem, feats, weights)
        ref = conv_ops.sparse_conv_reference(conv_problem, feats, weights)
        assert out.shape == ref.shape
        assert np.allclose(out, ref, atol=1e-4)
        assert session.stats.fast_runs == 1

    def test_sparse_conv_engines_agree_bit_exactly(self, conv_problem, rng):
        feats = rng.standard_normal(
            (conv_problem.num_in_points, conv_problem.in_channels)
        ).astype(np.float32)
        weights = rng.standard_normal(
            (conv_problem.kernel_volume, conv_problem.in_channels, conv_problem.out_channels)
        ).astype(np.float32)
        session = Session()
        fast = session.sparse_conv(conv_problem, feats, weights)
        assert session.stats.interpreted_runs == 0
        slow = Session(engine="interpret").sparse_conv(conv_problem, feats, weights)
        assert np.array_equal(fast, slow)

    def test_sparse_conv_repeated_calls_hit_kernel_cache(self, conv_problem, rng):
        session = Session()
        weights = rng.standard_normal(
            (conv_problem.kernel_volume, conv_problem.in_channels, conv_problem.out_channels)
        ).astype(np.float32)
        for _ in range(2):
            feats = rng.standard_normal(
                (conv_problem.num_in_points, conv_problem.in_channels)
            ).astype(np.float32)
            session.sparse_conv(conv_problem, feats, weights)
        assert session.stats.kernel_cache_misses == 1
        assert session.stats.kernel_cache_hits == 1

    def test_module_level_entry_points(self, adjacency, conv_problem, rng):
        x = rng.standard_normal((48, 6)).astype(np.float32)
        w = rng.standard_normal((5, 6, 4)).astype(np.float32)
        assert np.allclose(
            rgms_ops.rgms(adjacency, x, w),
            rgms_ops.rgms_reference(adjacency, x, w),
            atol=1e-4,
        )
        feats = rng.standard_normal(
            (conv_problem.num_in_points, conv_problem.in_channels)
        ).astype(np.float32)
        weights = rng.standard_normal(
            (conv_problem.kernel_volume, conv_problem.in_channels, conv_problem.out_channels)
        ).astype(np.float32)
        assert np.allclose(
            conv_ops.sparse_conv(conv_problem, feats, weights),
            conv_ops.sparse_conv_reference(conv_problem, feats, weights),
            atol=1e-4,
        )


class TestVectorizedFallback:
    def _unsafe_batched_program(self, csr, heads, feat, features):
        """A batched program the safety analysis must reject: the second
        store reads the first store's buffer at a shifted index, so batching
        could observe a different interleaving than serial execution."""
        builder = ProgramBuilder("unsafe_batched")
        h_axis = builder.dense_fixed("H", heads)
        i_axis = builder.dense_fixed("I", csr.rows)
        j_axis = builder.sparse_variable(
            "J", parent=i_axis, length=csr.cols, nnz=csr.nnz,
            indptr=csr.indptr, indices=csr.indices,
        )
        j_dense = builder.dense_fixed("J_", csr.cols)
        k_axis = builder.dense_fixed("K", feat)
        a_buf = builder.match_sparse_buffer("A", [i_axis, j_axis], data=csr.data)
        b_buf = builder.match_sparse_buffer(
            "B", [h_axis, j_dense, k_axis], data=features.reshape(-1)
        )
        c_buf = builder.match_sparse_buffer("C", [h_axis, i_axis, k_axis])
        d_buf = builder.match_sparse_buffer("D", [h_axis, i_axis, k_axis])
        with builder.sp_iter(
            [h_axis, i_axis, j_axis, k_axis], "SSRS", "unsafe"
        ) as (h, i, j, k):
            builder.init(c_buf[h, i, k], 0.0)
            builder.compute(c_buf[h, i, k], c_buf[h, i, k] + a_buf[i, j] * b_buf[h, j, k])
            builder.compute(d_buf[h, i, k], c_buf[h, i, k + 1])
        return builder.finish()

    def test_rejected_batched_program_falls_back(self, rng):
        from repro.core.codegen import UnsupportedForEmission, emit_numpy_source

        csr = CSRMatrix.random(rows=8, cols=8, density=0.3, seed=9)
        features = rng.standard_normal((2, 8, 3)).astype(np.float32)
        func = self._unsafe_batched_program(csr, 2, 3, features)

        session = Session()
        kernel = session.build(func)
        with pytest.raises(UnsupportedForEmission, match="store value reads buffers written"):
            emit_numpy_source(kernel.func)
        out = session.run_kernel(kernel)
        # The native tier runs the nest in the interpreter's order and needs
        # no hazard analysis; without a toolchain the interpreter takes it.
        native = toolchain_available()
        assert session.stats.interpreted_runs == (0 if native else 1)
        assert session.stats.native_runs == (1 if native else 0)
        assert session.stats.emitted_runs == 0
        assert kernel.last_engine == ("native" if native else "interpret")
        interpreted = kernel.run(engine="interpret")
        assert all(np.array_equal(out[name], interpreted[name]) for name in out)
        # The safe part of the program still computed the batched SpMM.
        expected = np.stack(
            [spmm_ops.spmm_reference(csr, features[h]) for h in range(2)]
        )
        assert np.allclose(out["C"].reshape(2, 8, 3), expected, atol=1e-5)


class TestCompileOnceRunMany:
    def test_repeated_op_calls_lower_once(self, csr, rng):
        session = Session()
        for _ in range(3):
            x = rng.standard_normal((csr.cols, 4)).astype(np.float32)
            session.spmm(csr, x)
        assert session.stats.builds == 3
        assert session.stats.kernel_cache_misses == 1
        assert session.stats.kernel_cache_hits == 2

    def test_engine_interpret(self, csr, rng):
        session = Session(engine="interpret")
        session.spmm(csr, rng.standard_normal((csr.cols, 2)).astype(np.float32))
        assert session.stats.interpreted_runs == 1
        assert session.stats.fast_runs == 0

    def test_engines_agree_through_session(self, csr, rng):
        x = rng.standard_normal((csr.cols, 4)).astype(np.float32)
        session = Session()
        fast = session.spmm(csr, x)
        assert session.stats.interpreted_runs == 0
        slow = Session(engine="interpret").spmm(csr, x)
        assert np.array_equal(fast, slow)


class TestModuleLevelOps:
    def test_op_entry_points_share_default_session(self, csr, rng):
        x = rng.standard_normal((csr.cols, 3)).astype(np.float32)
        default = get_default_session()
        runs = default.stats.runs
        out = spmm_ops.spmm(csr, x)
        assert np.allclose(out, spmm_ops.spmm_reference(csr, x), atol=1e-4)
        assert get_default_session().stats.runs == runs + 1

    def test_sddmm_entry_point(self, csr, rng):
        x = rng.standard_normal((csr.rows, 3)).astype(np.float32)
        y = rng.standard_normal((3, csr.cols)).astype(np.float32)
        out = sddmm_ops.sddmm(csr, x, y)
        assert np.allclose(out, sddmm_ops.sddmm_reference(csr, x, y), atol=1e-4)

    def test_pruned_entry_point(self, rng):
        dense = (rng.random((8, 8)) < 0.4).astype(np.float32)
        bsr = BSRMatrix.from_dense(dense, 2)
        x = rng.standard_normal((8, 2)).astype(np.float32)
        out = pruned_ops.pruned_spmm(bsr, x)
        assert np.allclose(out, pruned_ops.pruned_spmm_reference(bsr, x), atol=1e-4)
