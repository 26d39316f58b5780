"""Unit tests for the structural kernel cache."""

import gc
import weakref

import numpy as np
import pytest

from repro.core import build
from repro.core.codegen.cache import (
    DiskKernelCache,
    KernelCache,
    global_kernel_cache,
    resolve_cache,
    structural_fingerprint,
)
from repro.formats import CSRMatrix
from repro.ops.spmm import build_spmm_program, spmm_reference
from repro.runtime import Session
from repro.sim.device import V100
from repro.tune import SpMMProblem


@pytest.fixture
def csr():
    return CSRMatrix.random(rows=14, cols=11, density=0.3, seed=7)


def _reachable_arrays(root):
    """Every ndarray the garbage collector can reach from *root* (classes are
    not followed: they lead to every module, not to anything an entry holds)."""
    seen, stack, arrays = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        stack.extend(gc.get_referents(obj))
    return arrays


class TestFingerprint:
    def test_identical_structure_same_fingerprint(self, csr, rng):
        x1 = rng.standard_normal((csr.cols, 4)).astype(np.float32)
        x2 = rng.standard_normal((csr.cols, 4)).astype(np.float32)
        f1 = structural_fingerprint(build_spmm_program(csr, 4, x1))
        f2 = structural_fingerprint(build_spmm_program(csr, 4, x2))
        assert f1 == f2  # value data does not participate

    def test_different_structure_different_fingerprint(self, csr, rng):
        x = rng.standard_normal((csr.cols, 4)).astype(np.float32)
        base = structural_fingerprint(build_spmm_program(csr, 4, x))
        assert base != structural_fingerprint(build_spmm_program(csr, 8, x[:, :4].repeat(2, 1)))
        other = CSRMatrix.random(rows=14, cols=11, density=0.3, seed=8)
        assert base != structural_fingerprint(
            build_spmm_program(other, 4, x)
        )  # same shapes, different sparsity pattern

    def test_config_participates(self, csr, rng):
        func = build_spmm_program(csr, 4, rng.standard_normal((csr.cols, 4)).astype(np.float32))
        assert structural_fingerprint(func, {"horizontal_fusion": True}) != structural_fingerprint(
            func, {"horizontal_fusion": False}
        )


class TestKernelCache:
    def test_repeated_build_hits(self, csr, rng):
        cache = KernelCache()
        x = rng.standard_normal((csr.cols, 4)).astype(np.float32)
        build(build_spmm_program(csr, 4, x), cache=cache)
        assert (cache.stats.hits, cache.stats.misses) == (0, 1)
        build(build_spmm_program(csr, 4, x), cache=cache)
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)
        assert len(cache) == 1

    def test_cached_kernel_rebinds_new_data(self, csr, rng):
        """A cache hit must execute with the *new* program's value arrays."""
        cache = KernelCache()
        x1 = rng.standard_normal((csr.cols, 4)).astype(np.float32)
        x2 = rng.standard_normal((csr.cols, 4)).astype(np.float32)
        k1 = build(build_spmm_program(csr, 4, x1), cache=cache)
        k2 = build(build_spmm_program(csr, 4, x2), cache=cache)
        assert cache.stats.hits == 1
        assert k2.func is k1.func  # the lowered loop nest is shared
        out1 = k1.run()["C"].reshape(csr.rows, 4)
        out2 = k2.run()["C"].reshape(csr.rows, 4)
        assert np.allclose(out1, spmm_reference(csr, x1), atol=1e-4)
        assert np.allclose(out2, spmm_reference(csr, x2), atol=1e-4)

    def test_cache_hit_does_not_leak_first_builds_data(self, csr, rng):
        """A later build that leaves a buffer unbound must see zeros, not the
        value arrays of whichever build populated the cache entry."""
        cache = KernelCache()
        x = rng.standard_normal((csr.cols, 4)).astype(np.float32)
        build(build_spmm_program(csr, 4, x), cache=cache)
        k2 = build(build_spmm_program(csr, 4), cache=cache)  # features unbound
        assert cache.stats.hits == 1
        assert np.all(k2.run()["C"] == 0.0)

    def test_cache_entries_do_not_pin_value_arrays(self, csr, rng):
        cache = KernelCache()
        x = rng.standard_normal((csr.cols, 4)).astype(np.float32)
        build(build_spmm_program(csr, 4, x), cache=cache)
        entry = next(iter(cache._entries.values()))
        assert all(buf.data is None for buf in entry.lowered.buffers)
        # ... and no other path from the entry (a loop-nest body, say) leads
        # to the caller's operands either.
        held = _reachable_arrays(entry)
        assert held  # the structural indptr / indices tables stay
        assert not any(np.shares_memory(a, x) or np.shares_memory(a, csr.data) for a in held)

    def test_operands_die_with_the_caller_after_a_cold_build(self, rng):
        """The build that fills the entry is the one that could pin its
        operands: once the caller lets go, the cache must not keep them."""
        csr = CSRMatrix.random(rows=14, cols=11, density=0.3, seed=7)
        x = rng.standard_normal((csr.cols, 4)).astype(np.float32)
        cache = KernelCache()
        kernel = build(build_spmm_program(csr, 4, x), cache=cache)
        assert kernel.cache_hit is False
        operands = [weakref.ref(x), weakref.ref(csr.data)]
        del kernel, x, csr
        gc.collect()
        assert len(cache) == 1
        assert [ref() for ref in operands] == [None, None]

    def test_persisted_entry_size_is_independent_of_operand_width(self, rng, tmp_path):
        """What the disk layer pickles is the structure: 16x the feature
        width over one matrix moves the ``.pkl`` by a few shape digits."""
        csr = CSRMatrix.random(rows=200, cols=200, density=0.05, seed=7)
        cache = KernelCache(disk=DiskKernelCache(tmp_path))
        for feat in (4, 64):
            x = rng.standard_normal((csr.cols, feat)).astype(np.float32)
            build(build_spmm_program(csr, feat, x), cache=cache)
        narrow, wide = sorted(p.stat().st_size for p in cache.disk.dir.glob("*.pkl"))
        assert wide - narrow < 0.01 * narrow

    def test_different_sparsity_misses(self, csr, rng):
        cache = KernelCache()
        x = rng.standard_normal((csr.cols, 4)).astype(np.float32)
        build(build_spmm_program(csr, 4, x), cache=cache)
        other = CSRMatrix.random(rows=14, cols=11, density=0.3, seed=9)
        build(build_spmm_program(other, 4, x), cache=cache)
        assert cache.stats.hits == 0
        assert cache.stats.misses == 2

    def test_lru_eviction(self, csr, rng):
        cache = KernelCache(capacity=1)
        x = rng.standard_normal((csr.cols, 4)).astype(np.float32)
        build(build_spmm_program(csr, 4, x), cache=cache)
        build(build_spmm_program(csr, 8, np.hstack([x, x])), cache=cache)
        assert cache.stats.evictions == 1
        build(build_spmm_program(csr, 4, x), cache=cache)  # evicted -> miss
        assert cache.stats.hits == 0
        assert cache.stats.misses == 3

    def test_disable_with_false(self, csr, rng):
        x = rng.standard_normal((csr.cols, 4)).astype(np.float32)
        before = global_kernel_cache().stats.lookups
        build(build_spmm_program(csr, 4, x), cache=False)
        assert global_kernel_cache().stats.lookups == before

    def test_resolve_cache_validates(self):
        assert resolve_cache(None) is global_kernel_cache()
        assert resolve_cache(False) is None
        with pytest.raises(TypeError):
            resolve_cache("yes")

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            KernelCache(capacity=0)


class TestValueDtypeFingerprint:
    """Regression: a float32 cache entry must never serve a float64 caller.

    The structural fingerprint includes every buffer's value dtype, and the
    session resolves the compute dtype from its operands, so the two
    precisions build (and cache) distinct kernels.
    """

    def test_fingerprints_differ_by_value_dtype(self, csr, rng):
        x32 = rng.standard_normal((csr.cols, 4)).astype(np.float32)
        f32 = structural_fingerprint(build_spmm_program(csr, 4, x32, dtype="float32"))
        f64 = structural_fingerprint(
            build_spmm_program(csr, 4, x32.astype(np.float64), dtype="float64")
        )
        assert f32 != f64

    def test_float64_caller_gets_float64_kernel(self, csr, rng):
        session = Session()
        x64 = rng.standard_normal((csr.cols, 4)).astype(np.float64)
        # Warm the cache with the float32 variant of the same structure.
        out32 = session.spmm(csr, x64.astype(np.float32))
        assert out32.dtype == np.float32
        assert session.stats.kernel_cache_misses == 1

        out64 = session.spmm(csr, x64)
        assert out64.dtype == np.float64
        # Distinct structure -> a second miss, never a hit on the f32 entry.
        assert session.stats.kernel_cache_misses == 2
        assert session.stats.kernel_cache_hits == 0
        assert len(session.cache) == 2
        # And the result carries float64 precision: compare against a float64
        # reference at a tolerance float32 arithmetic cannot meet.
        reference = csr.to_scipy().astype(np.float64) @ x64
        np.testing.assert_allclose(out64, reference, rtol=1e-12, atol=1e-12)

    def test_explicit_dtype_overrides_inference(self, csr, rng):
        session = Session()
        x32 = rng.standard_normal((csr.cols, 2)).astype(np.float32)
        out = session.spmm(csr, x32, dtype="float64")
        assert out.dtype == np.float64
        with pytest.raises(ValueError):
            session.spmm(csr, x32, dtype="int32")

    def test_mixed_operands_promote_to_float64(self, csr, rng):
        """A float64 anywhere among the operands must not be silently
        downcast by inferring the dtype from the first operand only."""
        session = Session()
        x32 = rng.standard_normal((csr.rows, 3)).astype(np.float32)
        y64 = rng.standard_normal((3, csr.cols)).astype(np.float64)
        out = session.sddmm(csr, x32, y64)
        assert out.dtype == np.float64

    def test_sddmm_dtype_threads_through(self, csr, rng):
        session = Session()
        x = rng.standard_normal((csr.rows, 3)).astype(np.float64)
        y = rng.standard_normal((3, csr.cols)).astype(np.float64)
        out = session.sddmm(csr, x, y)
        assert out.dtype == np.float64
        reference = (x @ y)[csr.to_scipy().nonzero()] * csr.data
        np.testing.assert_allclose(out, reference, rtol=1e-10)


class TestTunerReuse:
    def test_tuner_decomposes_each_config_at_most_once(self):
        from repro.workloads.graphs import generate_adjacency

        graph = generate_adjacency(300, 2400, "powerlaw", seed=4)
        session = Session()
        tune = dict(device=V100, strategy="random", max_trials=12, seed=0,
                    survivors=12, repeats=1, records=False)
        session.autotune("spmm", SpMMProblem(graph, 32), **tune)
        first_misses = session.stats.format_cache_misses
        assert 0 < first_misses <= 12
        # A second tuning run over the same matrix re-uses every decomposition.
        session.autotune("spmm", SpMMProblem(graph, 32), force=True, **tune)
        assert session.stats.format_cache_misses == first_misses
        assert session.stats.format_cache_hits > 0
