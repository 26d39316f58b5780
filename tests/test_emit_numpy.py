"""Unit and golden-source tests of the stage-IV NumPy emitter.

The golden tests pin the emitted source of three canonical kernels against
files committed under ``tests/goldens/``.  When an intentional emitter change
shifts the output, regenerate them with ``pytest --regen-golden`` and review
the diff like any other code change (the goldens are the reviewable face of
the backend).
"""

import difflib
from pathlib import Path

import numpy as np
import pytest

from repro.core.codegen.build import build
from repro.core.codegen.emit_numpy import (
    EMITTER_VERSION,
    UnsupportedForEmission,
    compile_emitted,
    emit_numpy_source,
)
from repro.formats.bsr import BSRMatrix
from repro.formats.csr import CSRMatrix
from repro.ops.pruned_spmm import build_pruned_spmm_bsr_program
from repro.ops.sddmm import build_sddmm_program
from repro.ops.spmm import build_spmm_program

GOLDEN_DIR = Path(__file__).parent / "goldens"


def canonical_csr() -> CSRMatrix:
    """A fixed 4x4 matrix: one empty row, one heavy row, deterministic."""
    dense = np.array(
        [
            [1.0, 0.0, 2.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [0.5, 3.0, 0.0, 4.0],
            [5.0, 0.0, 0.0, 6.0],
        ],
        dtype=np.float32,
    )
    return CSRMatrix.from_dense(dense)


def canonical_lowered(name: str):
    csr = canonical_csr()
    if name == "spmm_csr":
        func = build_spmm_program(csr, 3)
    elif name == "sddmm_csr_fused":
        func = build_sddmm_program(csr, 2, fuse_ij=True)
    elif name == "pruned_spmm_bsr":
        dense = np.kron(
            np.array([[1, 0], [1, 1]], dtype=np.float32), np.ones((2, 2), dtype=np.float32)
        )
        bsr = BSRMatrix.from_dense(dense, 2)
        func = build_pruned_spmm_bsr_program(bsr, 3)
    else:  # pragma: no cover
        raise KeyError(name)
    return build(func, cache=False).func


class TestGoldenSources:
    @pytest.mark.parametrize("name", ["spmm_csr", "sddmm_csr_fused", "pruned_spmm_bsr"])
    def test_emitted_source_matches_golden(self, name, request):
        source = emit_numpy_source(canonical_lowered(name))
        path = GOLDEN_DIR / f"{name}.py"
        if request.config.getoption("--regen-golden"):
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(source)
            pytest.skip(f"regenerated {path.name}")
        assert path.exists(), (
            f"golden file {path} is missing; run `pytest --regen-golden` to create it"
        )
        golden = path.read_text()
        if source != golden:
            diff = "\n".join(
                difflib.unified_diff(
                    golden.splitlines(),
                    source.splitlines(),
                    fromfile=f"goldens/{name}.py (committed)",
                    tofile=f"{name} (emitted now)",
                    lineterm="",
                )
            )
            pytest.fail(
                "emitted source drifted from the golden file.  If the change is\n"
                "intentional, regenerate with `pytest --regen-golden` and commit\n"
                f"the diff.\n\n{diff}"
            )

    @pytest.mark.parametrize("name", ["spmm_csr", "sddmm_csr_fused", "pruned_spmm_bsr"])
    def test_golden_source_compiles_and_runs(self, name):
        """The committed goldens are live code: compile and execute them."""
        func = canonical_lowered(name)
        path = GOLDEN_DIR / f"{name}.py"
        assert path.exists()
        runner = compile_emitted(path.read_text(), func)
        from repro.runtime.executor import prepare_arrays

        expected = build(func, cache=False).run(engine="interpret")
        got = runner(prepare_arrays(func, {}))
        for key in expected:
            assert np.array_equal(expected[key], got[key]), key

    def test_emission_is_deterministic(self):
        func = canonical_lowered("spmm_csr")
        assert emit_numpy_source(func) == emit_numpy_source(func)


class TestEmitterBehaviour:
    def test_source_header_names_version(self):
        source = emit_numpy_source(canonical_lowered("spmm_csr"))
        assert f"emit_numpy v{EMITTER_VERSION}" in source

    def test_plan_runs_once_and_runner_is_reused(self):
        csr = canonical_csr()
        feats = np.ones((4, 3), dtype=np.float32)
        kernel = build(build_spmm_program(csr, 3, feats), cache=False)
        first = kernel._runner("emitted")
        second = kernel._runner("emitted")
        assert first is not None and first is second

    def test_emitted_tier_skipped_when_aux_buffers_rebound(self, monkeypatch):
        """A binding that overrides structural data must bypass the baked plan:
        the native kernel takes the table for the call, the emitted tier — whose
        lane plan is fixed to the structure it was made on — declines."""
        csr = canonical_csr()
        feats = np.ones((4, 3), dtype=np.float32)
        monkeypatch.setenv("REPRO_NATIVE", "0")
        kernel = build(build_spmm_program(csr, 3, feats), cache=False)
        expected = kernel.run()["C"]
        assert kernel.last_engine == "emitted"
        rebound = kernel.run({"J_indptr": csr.indptr.copy()})
        assert kernel.last_engine == "interpret"
        assert kernel.declined == {"native": "no toolchain", "emitted": "aux rebound"}
        assert np.array_equal(rebound["C"], expected)
        with pytest.raises(UnsupportedForEmission, match="auxiliary buffers rebound"):
            kernel.run({"J_indptr": csr.indptr.copy()}, engine="emitted")
        kernel.run()
        assert kernel.last_engine == "emitted" and "emitted" not in kernel.declined

    def test_strict_engine_raises_for_unemittable_program(self):
        from repro.core.buffers import FlatBuffer
        from repro.core.expr import Var
        from repro.core.program import STAGE_LOOP, PrimFunc
        from repro.core.stmt import BufferStore, ForLoop

        b = FlatBuffer("b", 4)
        n = FlatBuffer("n", 1)
        i = Var("i")
        # Loop bound reads a value buffer: plan cannot be fixed at compile time.
        body = ForLoop(i, 0, n[0], BufferStore(b, [i], 1.0))
        func = PrimFunc(
            "dyn", axes=[], buffers=[], body=body, stage=STAGE_LOOP, flat_buffers=[b, n]
        )
        with pytest.raises(UnsupportedForEmission):
            emit_numpy_source(func)
        kernel = build(func, cache=False)
        with pytest.raises(UnsupportedForEmission):
            kernel.run(engine="emitted")

    def test_emitted_source_cached_alongside_program(self):
        from repro.core.codegen.cache import KernelCache

        cache = KernelCache(disk=None)
        csr = canonical_csr()
        feats = np.ones((4, 3), dtype=np.float32)
        k1 = build(build_spmm_program(csr, 3, feats), cache=cache)
        # Building emits nothing; the source is printed when first asked for.
        assert cache.stats.emissions == 0
        source = k1.emitted_source()
        assert source is not None and "def make_kernel" in source
        assert cache.stats.emissions == 1
        # A cache hit reuses the emitted source without re-emitting.
        k2 = build(build_spmm_program(csr, 3, feats), cache=cache)
        assert k2.emitted_source() is source
        assert cache.stats.emissions == 1
