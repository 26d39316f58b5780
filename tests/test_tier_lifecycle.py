"""The compiled tiers' one lifecycle: emitted, loaded and stored on first use.

``build()`` lowers and nothing else; a tier prints, loads and stores its
artifact the first time it is asked to serve a kernel.  These tests pin what
follows from that: NumPy source exists only for kernels the emitted tier
serves, a later process reads it back instead of re-emitting, and a stored
source that fails its header check is re-emitted rather than executed.
"""

import json
import pickle

import numpy as np
import pytest

from repro.core.codegen import native
from repro.core.codegen.cache import DiskKernelCache, KernelCache
from repro.core.codegen.emit_c import toolchain_available
from repro.formats.csf import CSFTensor
from repro.formats.csr import CSRMatrix
from repro.ops.spmm import build_spmm_program
from repro.runtime.session import Session

needs_cc = pytest.mark.skipif(not toolchain_available(), reason="requires a C toolchain")


@pytest.fixture
def csr():
    return CSRMatrix.random(rows=16, cols=16, density=0.3, seed=5)


def _session(tmp_path, **kwargs):
    return Session(cache=KernelCache(disk=DiskKernelCache(tmp_path)), **kwargs)


def _files(session, suffix):
    return sorted(session.cache.disk.dir.glob(f"*{suffix}"))


def _native_zoo(session, csr, rng):
    """One call each of the operators the native tier serves."""
    f32 = lambda *shape: rng.standard_normal(shape).astype(np.float32)  # noqa: E731
    session.spmm(csr, f32(csr.cols, 4))
    session.spmm(csr, f32(csr.cols, 4), format="hyb", num_col_parts=2)
    session.sddmm(csr, f32(csr.rows, 3), f32(3, csr.cols))
    session.gemm(f32(5, 4), f32(4, 3))
    adjacency = CSFTensor.from_dense((rng.random((2, 8, 8)) < 0.3).astype(np.float32))
    session.rgms(adjacency, f32(8, 3), f32(2, 3, 2))


def _scores(csr, seed=0):
    return np.random.default_rng(seed).standard_normal((2, csr.nnz)).astype(np.float32)


class TestWorkFollowsDispatch:
    @needs_cc
    def test_native_served_kernels_never_emit_numpy(self, csr, tmp_path, monkeypatch):
        monkeypatch.setattr(native, "_LIB_MEMO", {})  # no text loaded from another directory
        session = _session(tmp_path)
        _native_zoo(session, csr, np.random.default_rng(0))
        assert session.stats.native_runs == 5 and session.stats.emitted_runs == 0
        assert session.cache.stats.lowerings == 5
        assert session.cache.stats.emissions == 0
        assert _files(session, ".py") == []
        # Each fingerprint left its program and its metadata, whose native
        # record names a shared object by its text: one ``<key>.so`` per
        # distinct text (a size-free source serves a whole program family),
        # and no listing.
        keys = set()
        for pkl in _files(session, ".pkl"):
            left = {p.suffix for p in pkl.parent.glob(f"{pkl.stem}.*")}
            assert left == {".pkl", ".json"}
            assert "source" not in pickle.loads(pkl.read_bytes())
            keys.add(json.loads(pkl.with_suffix(".json").read_text())["native"]["key"])
        assert sorted(path.stem for path in _files(session, ".so")) == sorted(keys)
        assert _files(session, ".c") == []

    @needs_cc
    def test_only_the_declined_kernel_emits(self, csr, tmp_path):
        """``exp`` keeps edge_softmax off the C fragment: the one kernel the
        emitted tier serves is the one kernel with NumPy source."""
        session = _session(tmp_path)
        _native_zoo(session, csr, np.random.default_rng(0))
        session.edge_softmax(csr, _scores(csr))
        assert session.stats.emitted_runs == 1
        assert session.cache.stats.emissions == 1
        assert len(_files(session, ".py")) == 1

    def test_asking_by_name_emits_once(self, csr, tmp_path):
        session = _session(tmp_path)
        feats = np.ones((csr.cols, 2), dtype=np.float32)
        kernel = session.build(build_spmm_program(csr, 2, feats))
        kernel.run()
        # The run emitted NumPy only if the emitted tier had to serve it.
        assert session.cache.stats.emissions == (kernel.last_engine == "emitted")
        listing = kernel.emitted_source()
        assert "def make_kernel" in listing
        assert session.build(build_spmm_program(csr, 2, feats)).emitted_source() is listing
        assert session.cache.stats.emissions == 1
        (py_path,) = _files(session, ".py")
        assert py_path.read_text().partition("\n")[2] == listing


class TestStoredSource:
    def test_second_cache_reads_the_source_back(self, csr, tmp_path):
        scores = _scores(csr)
        first = _session(tmp_path)
        expected = first.edge_softmax(csr, scores)
        assert first.cache.stats.lowerings == 1 and first.cache.stats.emissions == 1

        second = _session(tmp_path)
        assert np.array_equal(second.edge_softmax(csr, scores), expected)
        assert second.stats.emitted_runs == 1
        assert second.cache.stats.lowerings == 0 and second.cache.stats.emissions == 0
        assert second.cache.disk.stats.errors == 0

    @pytest.mark.parametrize("damage", ["truncated", "renamed"])
    def test_invalid_source_is_reemitted(self, csr, tmp_path, damage):
        scores = _scores(csr)
        first = _session(tmp_path)
        first.edge_softmax(csr, scores)
        (py_path,) = _files(first, ".py")
        good = py_path.read_text()
        if damage == "truncated":
            py_path.write_text(good[: len(good) // 2])
        else:  # another fingerprint's file under this name
            header, _, body = good.partition("\n")
            py_path.write_text(header.replace(py_path.stem, "0" * 64) + "\n" + body)

        second = _session(tmp_path)
        out = second.edge_softmax(csr, scores)
        assert second.stats.emitted_runs == 1
        assert second.cache.stats.lowerings == 0 and second.cache.stats.emissions == 1
        assert second.cache.disk.stats.errors == 1 == second.cache.stats.disk_errors
        assert np.array_equal(out, Session(engine="interpret").edge_softmax(csr, scores))
        # ... and the overwritten file is valid again.
        assert py_path.read_text() == good
        third = _session(tmp_path)
        third.edge_softmax(csr, scores)
        assert third.cache.stats.emissions == 0 and third.cache.disk.stats.errors == 0


class TestEmitterBump:
    """The fingerprint hashes what lowering reads; the NumPy emitter's version
    and lane budget are named by the stored source instead, so bumping them
    re-prints ``.py`` files and re-lowers (and re-``cc``s) nothing."""

    def _zoo(self, session, csr):
        rng = np.random.default_rng(2)
        f32 = lambda *shape: rng.standard_normal(shape).astype(np.float32)  # noqa: E731
        return [
            session.spmm(csr, f32(csr.cols, 4)),
            session.sddmm(csr, f32(csr.rows, 3), f32(3, csr.cols)),
            session.edge_softmax(csr, _scores(csr)),
        ]

    def test_a_new_emitter_version_relowers_nothing(self, csr, tmp_path, monkeypatch):
        from repro.core.codegen import emit_numpy

        engine = "auto" if toolchain_available() else "emitted"
        first = _session(tmp_path, engine=engine)
        expected = self._zoo(first, csr)
        assert first.cache.stats.lowerings == 3
        before = {path: path.stat().st_mtime_ns for path in first.cache.disk.dir.iterdir()}
        sources = {path: path.read_text() for path in _files(first, ".py")}
        assert len(sources) == (1 if toolchain_available() else 3)

        monkeypatch.setattr(emit_numpy, "EMITTER_VERSION", emit_numpy.EMITTER_VERSION + 1)
        second = _session(tmp_path, engine=engine)
        for out, want in zip(self._zoo(second, csr), expected):
            assert np.array_equal(out, want)
        stats = second.cache.stats
        assert stats.lowerings == 0 and stats.disk_hits == 3
        assert stats.native_rebuilds == 0
        # Every stored source was printed by the other emitter: a miss each,
        # re-emitted and overwritten under a header naming this one.
        assert stats.emissions == len(sources) == second.cache.disk.stats.errors
        after = {path: path.stat().st_mtime_ns for path in second.cache.disk.dir.iterdir()}
        assert after.keys() == before.keys()
        changed = {path for path in before if after[path] != before[path]}
        assert changed == set(sources)
        for path, old in sources.items():
            header = path.read_text().partition("\n")[0]
            assert f"emitter: v{emit_numpy.EMITTER_VERSION} " in header
            assert header != old.partition("\n")[0]
