"""Padded hyb slots: skipped by the program, and no answer changes.

A hyb bucket pads each row to the bucket's width with column ``-1``.  Stage-II
lowering guards the body of an ELL axis's loop with ``coordinate >= 0``: a
sparse iteration visits non-zeros, and a padded slot holds none.  Every tier
runs that one guarded program, so the tiers agree by construction; this
battery checks that they do, bit for bit, over hyb decompositions with empty
rows, split rows, buckets with and without padding, and features holding
``-0.0``, NaN and ±inf.  Bit for bit means every bit of every element but a
NaN's: which of two NaNs a sum returns is left open by IEEE 754, and the
tiers differ there (:func:`same_bits`).

It also pins the semantics the guard must keep: a float32 NumPy replay of the
buckets in bucket / row / slot order that still *runs* every padded slot, as
``C + 0·0``, gives the same bits.  That holds because ``C`` starts at ``+0``
and a sum that starts at ``+0`` never becomes ``-0.0`` under round to
nearest, so ``C + (+0)`` is ``C`` for every ``C`` a bucket can leave, NaN and
±inf included; and ``HybFormat`` pads values with 0, so a padded slot's own
product is ``0·0`` and never ``0·inf``.

Runs in both backend CI lanes: without a toolchain the native runs are
skipped, and hyb must still be served by the emitted tier.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.codegen.build import build
from repro.core.codegen.emit_c import toolchain_available
from repro.formats.csr import CSRMatrix
from repro.formats.hyb import HybFormat
from repro.ops.spmm import build_spmm_hyb_program
from repro.runtime.session import Session

from test_backend_differential import run_native_guarded

NATIVE = toolchain_available()
SPECIALS = np.array([-0.0, np.nan, np.inf, -np.inf], dtype=np.float32)


def hyb_matrix(lengths, cols, seed):
    """A float32 CSR whose row *r* stores ``lengths[r]`` non-zeros at
    distinct random columns, every value finite and non-zero."""
    rng = np.random.default_rng(seed)
    dense = np.zeros((len(lengths), cols), dtype=np.float32)
    for row, length in enumerate(lengths):
        picked = rng.choice(cols, size=length, replace=False)
        dense[row, picked] = rng.uniform(0.5, 2.0, length) * rng.choice([-1.0, 1.0], length)
    return CSRMatrix.from_dense(dense)


def features(cols, feat, specials, seed):
    """Standard-normal features with *specials* of ``-0.0`` / NaN / ±inf."""
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal((cols, feat)).astype(np.float32)
    spots = rng.integers(0, x.size, size=specials)
    x.reshape(-1)[spots] = SPECIALS[rng.integers(0, SPECIALS.size, size=specials)]
    return x


def replay(hyb, x):
    """The buckets in bucket / row / slot order, float32, a padded slot run
    as ``C + 0·0``: what the program computed before it skipped them."""
    out = np.zeros((hyb.source.rows, x.shape[1]), dtype=np.float32)
    none = np.zeros(x.shape[1], dtype=np.float32)
    for bucket in hyb.buckets:
        ell = bucket.ell
        for row in range(ell.num_rows):
            target = int(ell.row_map[row])
            for slot in range(ell.nnz_cols):
                col = int(ell.indices[row, slot])
                gathered = x[bucket.col_offset + col] if col >= 0 else none
                out[target] = out[target] + np.float32(ell.data[row, slot]) * gathered
    return out


def same_bits(a, b):
    """Bit for bit — ``-0.0`` and ±inf included — except that a NaN may be
    any NaN.  Where two NaNs meet in a sum, which one comes out is no part of
    IEEE 754: NumPy's scalar ``+`` (the interpreter's) returns the second
    operand's, its array loops the first, and GCC's vector and scalar code of
    one loop need not agree.  So the sign of a NaN differs between tiers."""
    nan = np.isnan(a)
    return (
        a.dtype == b.dtype and a.shape == b.shape and np.array_equal(nan, np.isnan(b))
        and np.array_equal(np.where(nan, 0, a).view(np.uint8), np.where(nan, 0, b).view(np.uint8))
    )


@st.composite
def decompositions(draw):
    """``(lengths, cols, parts, buckets, feat, specials, seed)``."""
    cols = draw(st.integers(1, 16))
    lengths = draw(st.lists(st.integers(0, cols), min_size=1, max_size=10))
    return (
        lengths, cols, draw(st.integers(1, 3)), draw(st.integers(1, 4)),
        draw(st.integers(1, 9)), draw(st.integers(0, 6)), draw(st.integers(0, 2**16)),
    )


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf
class TestPaddingChangesNoAnswer:
    @settings(max_examples=40, deadline=None)
    @given(case=decompositions())
    # An empty row, a width-1 bucket without padding, a row of 3 split across
    # the width-2 bucket (one padded slot), and a NaN, an inf and a -0.0.
    @example(case=([0, 1, 3, 2], 4, 1, 2, 3, 3, 5))
    # Widths 1, 2, 4: rows of 12, 9 and 5 split across the width-4 bucket,
    # the 12 without padding; 8 features, 6 of them special.
    @example(case=([12, 0, 9, 1, 5], 12, 1, 3, 8, 6, 11))
    def test_every_tier_equals_the_replay(self, case):
        lengths, cols, parts, buckets, feat, specials, seed = case
        csr = hyb_matrix(lengths, cols, seed)
        hyb = HybFormat.from_csr(csr, num_col_parts=parts, num_buckets=buckets)
        x = features(cols, feat, specials, seed)
        expected = replay(hyb, x).reshape(-1)

        kernel = build(build_spmm_hyb_program(hyb, feat, x), cache=False)
        interpreted = kernel.run(engine="interpret")
        assert same_bits(interpreted["C"], expected), "the interpreter diverges from the replay"
        emitted = kernel.run(engine="emitted")["C"]
        assert kernel.last_engine == "emitted" and same_bits(emitted, expected)
        if NATIVE:
            native = kernel.run(engine="native")["C"]
            assert kernel.last_engine == "native" and same_bits(native, expected)
            for bound in (False, True):  # the unbound runner and a bound call, C between guard zones
                assert same_bits(run_native_guarded(kernel, bound=bound)["C"], expected)

        session = Session(persistent=False)
        for _warm in range(2):  # the cold call, then the bound-kernel handle
            got = session.spmm(csr, x, format="hyb", num_col_parts=parts, num_buckets=buckets)
            assert same_bits(got.reshape(-1), expected)
        assert session.stats.handle_hits == 1 and session.stats.interpreted_runs == 0

    def test_the_cases_cover_what_the_guard_skips(self):
        """The pinned example has an empty row, a split row, a bucket with
        padding and one without."""
        csr = hyb_matrix([0, 1, 3, 2], 4, 5)
        hyb = HybFormat.from_csr(csr, num_col_parts=1, num_buckets=2)
        padded = {bucket.width: bucket.stored - bucket.nnz for bucket in hyb.buckets}
        assert padded == {1: 0, 2: 1}
        rows = [int(row) for bucket in hyb.buckets for row in bucket.ell.row_map]
        assert 0 not in rows and rows.count(2) == 2


class TestTier:
    def test_hyb_is_served_by_a_compiled_tier_without_a_toolchain(self, monkeypatch):
        """The guard is a plan-time mask on the emitted tier: with no C
        compiler, hyb runs there, not on the interpreter."""
        monkeypatch.setenv("CC", "/nonexistent/cc")
        csr = hyb_matrix([0, 1, 3, 2, 4], 5, 2)
        x = features(5, 4, 0, 2)
        kernel = build(build_spmm_hyb_program(HybFormat.from_csr(csr, 2, 3), 4, x), cache=False)
        assert kernel.fast_tier() == "emitted"
        assert kernel.declined["native"] == "no toolchain"

    @pytest.mark.skipif(not NATIVE, reason="the native tier needs a C compiler")
    def test_hyb_is_served_natively_with_one(self):
        csr = hyb_matrix([0, 1, 3, 2, 4], 5, 2)
        x = features(5, 4, 0, 2)
        kernel = build(build_spmm_hyb_program(HybFormat.from_csr(csr, 2, 3), 4, x), cache=False)
        assert kernel.fast_tier() == "native" and "native" not in kernel.declined


class TestRowmapIsStructure:
    def test_two_rowmaps_of_one_column_table_are_two_kernels(self):
        """``rowmap`` is an auxiliary table the native tier binds at load: two
        hybs whose buckets hold the same columns for different rows must not
        share a cache entry, or the second would scatter into the first's
        rows."""
        from repro.core.codegen.cache import KernelCache, structural_fingerprint

        first, second = np.zeros((3, 4), dtype=np.float32), np.zeros((3, 4), dtype=np.float32)
        first[0, [1, 2]] = second[2, [1, 2]] = [1.5, -2.0]
        x = features(4, 3, 0, 1)
        cache, fingerprints = KernelCache(disk=None), []
        for dense in (first, second):
            hyb = HybFormat.from_csr(CSRMatrix.from_dense(dense), 1, 2)
            program = build_spmm_hyb_program(hyb, 3, x)
            fingerprints.append(structural_fingerprint(program))
            assert same_bits(build(program, cache=cache).run()["C"], replay(hyb, x).reshape(-1))
        assert fingerprints[0] != fingerprints[1]
