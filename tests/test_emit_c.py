"""The native (C) stage-IV backend: goldens, artifact cache, fallback ladder.

Golden tests pin the emitted C source of the three canonical kernels against
files committed under ``tests/goldens/`` (same ``--regen-golden`` workflow as
the NumPy goldens — regenerate, review the diff, commit).  The artifact-cache
tests plant skewed or corrupted ``.so`` records and assert they load as
*misses that rebuild*, never as imports; the subprocess test proves a cold
process reuses a warm native artifact with zero compilation.
"""

import difflib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.codegen.build import build
from repro.core.codegen.cache import (
    CACHE_ENV_VAR,
    DiskKernelCache,
    KernelCache,
)
from repro.core.codegen import UnsupportedForEmission, emit_c, native
from repro.core.codegen.emit_c import (
    NATIVE_ENV_VAR,
    NATIVE_VERSION,
    UnsupportedForC,
    artifact_key,
    emit_c_source,
    find_compiler,
    native_tag,
    toolchain_available,
)
from repro.formats.csr import CSRMatrix
from repro.ops.spmm import build_spmm_program, spmm_reference

from test_emit_numpy import GOLDEN_DIR, canonical_lowered

needs_cc = pytest.mark.skipif(
    not toolchain_available(), reason="no C compiler available"
)


@pytest.fixture(autouse=True)
def _fresh_lib_memo():
    """Isolate the process-wide sha -> dlopened-library memo per test.

    Without this, the first test to compile a source pins its library for
    the whole session and later tests could never observe a disk hit or a
    rebuild for the same source.
    """
    with emit_c._MEMO_LOCK:
        saved = dict(emit_c._LIB_MEMO)
        emit_c._LIB_MEMO.clear()
    yield
    with emit_c._MEMO_LOCK:
        emit_c._LIB_MEMO.clear()
        emit_c._LIB_MEMO.update(saved)


@pytest.fixture
def csr():
    return CSRMatrix.random(rows=16, cols=12, density=0.3, seed=5)


def fused_rgcn(width=8, nodes=6, classes=None, session=None):
    """A two-relation, two-layer RGCN compiled into one fused unit; returns
    ``(forward, features, the unit's kernel)``."""
    from repro.formats.csf import CSFTensor
    from repro.models.rgcn import RGCN
    from repro.runtime.session import Session

    rng = np.random.default_rng(nodes)
    adjacency = CSFTensor.from_dense((rng.random((2, nodes, nodes)) < 0.4).astype(np.float32))
    model = RGCN(adjacency, in_feats=width, hidden=width, num_classes=classes or width)
    feats = rng.standard_normal((nodes, width)).astype(np.float32)
    forward = model.compile(session or Session(persistent=False), feats, fuse=True)
    (unit,) = forward.compiled.units
    return forward, feats, unit.kernel


GOLDENS = ["spmm_csr", "sddmm_csr_fused", "pruned_spmm_bsr", "rgcn_fused", "gemm", "spmm_hyb"]


def golden_lowered(name):
    return fused_rgcn()[2].func if name == "rgcn_fused" else canonical_lowered(name)


def canonical_spmm(csr, feat=4):
    return build(build_spmm_program(csr, feat), cache=False).func


def _build_once(csr, cache, feat=4, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((csr.cols, feat)).astype(np.float32)
    return build(build_spmm_program(csr, feat, x), cache=cache), x


class TestGoldenCSources:
    @pytest.mark.parametrize("name", GOLDENS)
    def test_emitted_c_matches_golden(self, name, request):
        c_source, _binding = emit_c_source(golden_lowered(name))
        path = GOLDEN_DIR / f"{name}.c"
        if request.config.getoption("--regen-golden"):
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(c_source)
            pytest.skip(f"regenerated {path.name}")
        assert path.exists(), (
            f"golden file {path} is missing; run `pytest --regen-golden` to create it"
        )
        golden = path.read_text()
        if c_source != golden:
            diff = "\n".join(
                difflib.unified_diff(
                    golden.splitlines(),
                    c_source.splitlines(),
                    fromfile=f"goldens/{name}.c (committed)",
                    tofile=f"{name} (emitted now)",
                    lineterm="",
                )
            )
            pytest.fail(
                "emitted C source drifted from the golden file.  If the change\n"
                "is intentional, regenerate with `pytest --regen-golden` and\n"
                f"commit the diff.\n\n{diff}"
            )

    def test_emission_is_deterministic(self):
        func = canonical_lowered("spmm_csr")
        assert emit_c_source(func) == emit_c_source(func)

    def test_source_header_names_version(self):
        c_source, binding = emit_c_source(canonical_lowered("spmm_csr"))
        assert f"emit_c v{NATIVE_VERSION}" in c_source
        # The second element is a descriptor, not a module: names and scalars.
        assert binding.bufs == ("C", "A", "B")
        assert binding.tabs == (("aux", "J_indptr"), ("aux", "J_indices"), ("aux", "J_dense_indptr"))
        assert all(isinstance(v, int) for v in binding.ipar) and binding.fpar == ()

    def test_c_source_is_size_free(self):
        """Two structures of one program family share one C source (and so
        one compilation) whatever their shape *and* feature width: every
        size travels through ``ipar``."""
        a = CSRMatrix.random(rows=16, cols=12, density=0.3, seed=1)
        b = CSRMatrix.random(rows=64, cols=48, density=0.1, seed=2)
        src_a, bind_a = emit_c_source(build(build_spmm_program(a, 4), cache=False).func)
        src_b, bind_b = emit_c_source(build(build_spmm_program(b, 24), cache=False).func)
        assert src_a == src_b
        assert bind_a.ipar != bind_b.ipar and len(bind_a.ipar) == len(bind_b.ipar)

    def test_equal_sizes_do_not_change_the_text(self):
        """Strides of different buffers that happen to be equal share neither
        an ``ipar`` slot nor a hoisted temporary: the text is the same as
        when they differ."""
        from repro.core.buffers import FlatBuffer
        from repro.core.expr import Var
        from repro.core.program import STAGE_LOOP, PrimFunc
        from repro.core.stmt import BufferStore, ForLoop

        def source(x_width, y_width):
            x, y, out = FlatBuffer("x", 64), FlatBuffer("y", 64), FlatBuffer("out", 64)
            i, k = Var("i"), Var("k")
            body = BufferStore(out, [i * 8 + k], out[i * 8 + k] + x[i * x_width + k] * y[i * y_width + k])
            nest = ForLoop(i, 0, 4, ForLoop(k, 0, 4, body))
            func = PrimFunc("widths", axes=[], buffers=[], body=nest, stage=STAGE_LOOP, flat_buffers=[x, y, out])
            return emit_c_source(func)[0]

        assert source(8, 8) == source(8, 12) == source(6, 12)

    def test_fused_regions_are_size_free_too(self, monkeypatch):
        """The tile is 32 bytes whatever the feature width: fused RGCN at
        widths 8 / 16 / 24 and two node counts is one text and one ``cc``."""
        compiled = []
        real = emit_c.compile_so
        monkeypatch.setattr(emit_c, "compile_so", lambda src, out: (compiled.append(src), real(src, out)))
        texts = set()
        for width, nodes in ((8, 6), (16, 6), (24, 6), (16, 11)):
            forward, feats, kernel = fused_rgcn(width, nodes)
            texts.add(emit_c_source(kernel.func)[0])
            if toolchain_available():
                forward(feats)
                assert kernel.last_engine == "native" and kernel._runner("native").serial_regions == 0
        (text,) = texts
        assert text == (GOLDEN_DIR / "rgcn_fused.c").read_text()
        assert len(compiled) == (1 if toolchain_available() else 0)
        # The width appears once in the emitter, as bytes; the text carries lanes.
        source = Path(emit_c.__file__).read_text()
        assert source.count("TILE_BYTES = 32") == 1 and emit_c.TILE_BYTES == 32
        assert "float t0[8]" in text and "start += 8" in text

    def test_a_width_that_is_no_multiple_of_the_tile_runs_the_serial_nests(self):
        forward, feats, kernel = fused_rgcn(width=8, classes=5)
        assert emit_c_source(kernel.func)[0] == (GOLDEN_DIR / "rgcn_fused.c").read_text()
        if toolchain_available():
            forward(feats)
            assert kernel._runner("native").serial_regions == 1  # the second layer, 5 wide

    @needs_cc
    @pytest.mark.parametrize("name", GOLDENS)
    def test_golden_c_compiles_and_runs_bit_exact(self, name, tmp_path):
        """The committed goldens are live code: compile the .c file that is
        actually in the repository and compare against the interpreter."""
        from repro.runtime.executor import prepare_arrays

        func, bindings = golden_lowered(name), {}
        if name == "rgcn_fused":  # a cached lowering carries no values: bind weights and features
            _forward, feats, kernel = fused_rgcn()
            bindings = {**kernel.defaults, "n0_X": feats}
        _c_source, binding = emit_c_source(func)
        path = GOLDEN_DIR / f"{name}.c"
        assert path.exists()
        runner = emit_c.load_native(func, path.read_text(), binding)
        expected = build(func, cache=False).run(bindings, engine="interpret")
        got = runner(prepare_arrays(func, bindings))
        assert got and any(array.any() for array in got.values())
        for key in got:  # every buffer but the kernel's own (``local``) ones
            assert expected[key].dtype == got[key].dtype, key
            assert np.array_equal(expected[key], got[key]), key
        if name == "rgcn_fused":
            assert runner.serial_regions == 0 and len(got) < len(expected)


SIMD = "#pragma omp simd"


def _spmm_stage2(csr, feat=4):
    from repro.core.stage2.lowering import lower_sparse_iterations

    return lower_sparse_iterations(build_spmm_program(csr, feat))


class TestSimdMarks:
    """Which loops carry ``#pragma omp simd``: exactly the unchecked bodies the
    independence proof accepts, printed as canonical OpenMP loops."""

    def test_csr_spmm_marks_its_feature_loop_once(self):
        source, _ = emit_c_source(canonical_lowered("spmm_csr"))
        assert source.count(SIMD) == 1
        # Canonical form: the bound in front of the pragma, a plain header under it.
        marked = re.search(
            r"const int64_t (_t\d+) = ip\[\d+\];\n\t+#pragma omp simd\n"
            r"\t+for \(int64_t k = 0; k < \1; \+\+k\)\n\t+C\[",
            source,
        )
        assert marked, source
        # No checked copy beside it: the binding's table checks prove every
        # access, so the one serial header left is the init pass's zero fill.
        assert source.count("for (int64_t k = 0, _t") == 1
        assert "_LD(" not in source and "_IN2(" not in source

    def test_goldens_carry_the_expected_marks(self):
        texts = {name: (GOLDEN_DIR / f"{name}.c").read_text() for name in GOLDENS}
        marks = {name: text.count(SIMD) for name, text in texts.items()}
        # rgcn_fused: the four serial nests (rgms, gemm, add, relu) and the same
        # four as members of a region; tile moves and fills carry none.
        # gemm: its row tile's lane loop and the lane loop of the rows left over.
        # spmm_hyb: one nest both buckets call, its feature loop under the
        # padded-slot guard.
        assert marks == {
            "spmm_csr": 1, "pruned_spmm_bsr": 1, "sddmm_csr_fused": 0, "rgcn_fused": 8, "gemm": 2, "spmm_hyb": 1,
        }
        regions = {name: text.count("static int _r") for name, text in texts.items()}
        assert regions == {**dict.fromkeys(GOLDENS, 0), "rgcn_fused": 2}
        tiles = {name: text.count(f"+= {emit_c.TILE_ROWS})") for name, text in texts.items()}
        assert tiles == {**dict.fromkeys(GOLDENS, 0), "gemm": 1}

    @pytest.mark.parametrize("name", [name for name in GOLDENS if name != "gemm"])
    def test_row_tiles_leave_every_other_golden_alone(self, name, monkeypatch):
        """Only a lone dense reduction nest ``run`` always calls is tiled: the
        other goldens print the same text with row tiling switched off (the
        serial gemm nest of ``rgcn_fused``, a region's fallback, among them)."""
        text = (GOLDEN_DIR / f"{name}.c").read_text()
        monkeypatch.setattr(emit_c, "row_tile", lambda nest: None)
        assert emit_c_source(golden_lowered(name))[0] == text

    def test_hyb_marks_one_loop_per_distinct_bucket_nest(self):
        from repro.formats.hyb import HybFormat
        from repro.ops.spmm import build_spmm_hyb_program

        csr = CSRMatrix.random(rows=40, cols=30, density=0.2, seed=5)
        hyb = HybFormat.from_csr(csr, num_col_parts=2, num_buckets=3)
        source, binding = emit_c_source(build(build_spmm_hyb_program(hyb, 4), cache=False).func)
        definitions, zero = source.split("int zero(")
        zero, run = zero.split("int run(")
        nests = [text for text in definitions.split("static void ")[1:] if "rowmap" in text]
        # The leading ``C = 0`` nest is called from zero(), every bucket's from run().
        assert len(re.findall(r"_k\d+\(", zero)) == 1 and binding.zero == ("C",)
        calls = len(re.findall(r"_k\d+\(", run))
        assert 1 <= len(nests) < calls == len(hyb.buckets)  # same-shape buckets share a function
        assert all(text.count(SIMD) == 1 for text in nests)
        assert source.count(SIMD) == len(nests)

    def test_fused_rgcn_marks_every_member_kind(self):
        from repro.formats.csf import CSFTensor
        from repro.models.rgcn import RGCN
        from repro.runtime.session import Session

        rng = np.random.default_rng(0)
        adjacency = CSFTensor.from_dense((rng.random((3, 25, 25)) < 0.15).astype(np.float32))
        model = RGCN(adjacency, in_feats=4, hidden=5, num_classes=3)
        feats = rng.standard_normal((25, 4)).astype(np.float32)
        forward = model.compile(Session(persistent=False), feats, fuse=True)
        (unit,) = forward.compiled.units
        source, _ = emit_c_source(unit.kernel.func)
        marked = re.findall(r"#pragma omp simd\n\t+for \(int64_t n\d+_(\w+) = 0;[^\n]*\n\t+(\S+)\[", source)
        # rgms accumulates Y over l0, gemm C over j, add and relu store C over j:
        # once in the serial nest, once — on the tile — as a member of a region.
        stores = [re.sub(r"n\d+_", "", target) + ":" + var for var, target in marked]
        assert sorted(set(stores)) == ["C:j", "C_t:j", "Y:l0", "Y_t:l0"]
        assert sum(not store.split(":")[0].endswith("_t") for store in stores) == 4
        for line in source.split(SIMD)[1:]:
            assert "_LD(" not in line.split(";", 2)[1]  # the marked body is the unchecked one

    def test_flags_stay_at_o2_with_the_simd_door_open(self):
        assert all(isinstance(flag, str) for flag in emit_c.CFLAGS)
        assert "-O2" in emit_c.CFLAGS and "-ffp-contract=off" in emit_c.CFLAGS
        assert "-fopenmp-simd" in emit_c.CFLAGS
        assert not {"-O3", "-Ofast", "-ffast-math", "-fopenmp", "-march=native"} & set(emit_c.CFLAGS)

    def test_inlining_is_by_keyword(self):
        """No nest is copied into ``run``; of a region's members the
        element-wise ones (a lone lane loop) are ``inline``, one with
        reduction loops is a function its calls share."""
        assert "-fno-inline-small-functions" in emit_c.CFLAGS
        text = (GOLDEN_DIR / "rgcn_fused.c").read_text()
        member = r"^static (inline )?void _k\d+\(int64_t row, int64_t start,[^\n]*\n\{\n(.*?)\n\}$"
        members = re.findall(member, text, re.M | re.S)
        assert {bool(inline) for inline, _body in members} == {True, False}
        for inline, body in members:
            assert bool(inline) == (body.count("for (") == 1), body

    @needs_cc
    @pytest.mark.parametrize("name", GOLDENS)
    def test_the_compiler_vectorises_every_marked_loop(self, name, tmp_path):
        """A pragma the compiler ignores must fail here, not ship as a comment:
        compile the committed golden with the production flags and read GCC's
        vectoriser report — one vectorised loop per mark, none elsewhere."""
        version = subprocess.run(
            [find_compiler(), "--version"], capture_output=True, text=True
        ).stdout.lower()
        if "clang" in version or "free software foundation" not in version:
            pytest.skip("-fopt-info-vec-optimized is a GCC report")
        path = GOLDEN_DIR / f"{name}.c"
        proc = subprocess.run(
            [
                find_compiler(), *emit_c.CFLAGS, "-fopt-info-vec-optimized",
                "-Werror=unknown-pragmas", str(path), "-o", str(tmp_path / "k.so"), "-lm",
            ],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        lines = path.read_text().splitlines()
        marks = [n for n, line in enumerate(lines, 1) if line.strip() == SIMD]
        report = re.findall(r":(\d+):\d+: optimized: loop vectorized", proc.stderr)
        loops = sorted({int(n) for n in report})  # main loop and epilogue share a location
        # GCC places a loop at its header or its first statement: the two lines under a mark.
        assert len(loops) == len(marks), proc.stderr
        assert all(mark < loop <= mark + 2 for mark, loop in zip(marks, loops)), proc.stderr


def _strong_imports(path):
    """The non-weak undefined dynamic symbols of the shared object at *path*,
    read with ``nm`` or, failing that, ``readelf`` (``None``: neither runs)."""
    import shutil

    if shutil.which("nm"):
        out = subprocess.run(["nm", "-D", "--undefined-only", str(path)], capture_output=True, text=True)
        rows = [line.split() for line in out.stdout.splitlines()]
        return {row[-1].split("@")[0] for row in rows if row and row[-2] == "U"}
    if shutil.which("readelf"):
        out = subprocess.run(["readelf", "--dyn-syms", "-W", str(path)], capture_output=True, text=True)
        rows = [line.split() for line in out.stdout.splitlines()]
        # Num: Value Size Type Bind Vis Ndx Name
        return {row[7].split("@")[0] for row in rows if len(row) >= 8 and row[6] == "UND" and row[4] != "WEAK"}
    return None


class TestArtifactImports:
    @needs_cc
    @pytest.mark.parametrize("name", GOLDENS)
    def test_a_kernel_imports_no_memory_routine(self, name, tmp_path):
        """An unguarded fill or copy loop is one GCC turns into ``memset`` /
        ``memcpy``: every artifact would import it and grow by a PLT entry and
        its relocations (+232 B of a 5,576 B ``.so``).  A kernel may import the
        allocator its ``local`` buffers use, nothing else."""
        version = subprocess.run([find_compiler(), "--version"], capture_output=True, text=True).stdout
        if "free software foundation" not in version.lower():
            pytest.skip("loop distribution into memory routines is GCC's")
        so = tmp_path / "k.so"
        proc = subprocess.run(
            [find_compiler(), *emit_c.CFLAGS, str(GOLDEN_DIR / f"{name}.c"), "-o", str(so), "-lm"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        imports = _strong_imports(so)
        if imports is None:
            pytest.skip("neither nm nor readelf is on PATH")
        assert imports <= {"calloc", "free"}, imports


class TestScheduleDoor:
    """``Schedule.vectorize`` reaches the C through the proof, like every loop."""

    def test_vectorize_on_the_feature_loop_prints_the_unscheduled_text(self, csr):
        from repro.core.stage2.schedule import Schedule

        plain = emit_c_source(build(_spmm_stage2(csr), cache=False).func)
        schedule = Schedule(_spmm_stage2(csr))
        schedule.vectorize(schedule.get_loops("spmm_compute")[-1])
        scheduled = emit_c_source(build(schedule.func, cache=False).func)
        assert scheduled == plain and plain[0].count(SIMD) == 1 and plain[1].serial == ()

    def test_unroll_stays_unread(self, csr):
        from repro.core.stage2.schedule import Schedule

        schedule = Schedule(_spmm_stage2(csr))
        schedule.unroll(schedule.get_loops("spmm_compute")[-1])
        plain = emit_c_source(build(_spmm_stage2(csr), cache=False).func)
        assert emit_c_source(build(schedule.func, cache=False).func) == plain

    def test_vectorize_on_a_reduction_loop_stays_serial_and_says_why(self, csr):
        from repro.core.stage2.lowering import lower_sparse_iterations
        from repro.core.stage2.schedule import Schedule
        from repro.ops.sddmm import build_sddmm_program

        stage2 = lambda: lower_sparse_iterations(build_sddmm_program(csr, 5))  # noqa: E731
        schedule = Schedule(stage2())
        loop = schedule.vectorize(schedule.get_loops("sddmm_compute")[-1])
        kernel = build(schedule.func, cache=False)
        source, binding = emit_c_source(kernel.func)
        assert "#pragma" not in source
        assert source == emit_c_source(build(stage2(), cache=False).func)[0]
        ((what, why),) = binding.serial
        assert what == f"vectorize {loop.loop_var.name}" and "does not move" in why
        if toolchain_available():
            out = kernel.run()
            assert kernel.last_engine == "native"
            assert kernel.declined == {what: why}
            assert np.array_equal(out["OUT"], kernel.run(engine="interpret")["OUT"])


class TestUnsupportedConstructs:
    def test_exp_is_rejected(self):
        """softmax-style programs (exp) stay off the native tier: NumPy's
        SIMD exp is not bit-identical to libm's."""
        from repro.ops.batched import build_edge_softmax_program

        csr = CSRMatrix.random(rows=8, cols=8, density=0.4, seed=3)
        scores = np.random.default_rng(0).standard_normal((2, csr.nnz)).astype(np.float32)
        func = build(build_edge_softmax_program(csr, 2, scores), cache=False).func
        with pytest.raises(UnsupportedForC):
            emit_c_source(func)

    def test_unsupported_program_falls_back_not_errors(self, csr):
        from repro.ops.batched import build_edge_softmax_program

        scores = np.random.default_rng(0).standard_normal((2, csr.nnz)).astype(np.float32)
        kernel = build(build_edge_softmax_program(csr, 2, scores), cache=False)
        assert kernel.native_source() is None
        kernel.run()
        assert kernel.last_engine != "native"
        with pytest.raises(UnsupportedForEmission):
            kernel.run(engine="native")


class TestToolchainGating:
    def test_env_var_disables_tier(self, monkeypatch, csr):
        monkeypatch.setenv(NATIVE_ENV_VAR, "0")
        assert find_compiler() is None and not toolchain_available()
        kernel, x = _build_once(csr, cache=False)
        out = kernel.run()
        assert kernel.last_engine == "emitted"
        assert np.allclose(out["C"].reshape(csr.rows, 4), spmm_reference(csr, x), atol=1e-4)

    def test_missing_compiler_is_graceful(self, monkeypatch, csr):
        """CC pointing at a non-existent path simulates a machine with no
        compiler: the native tier reports unavailable, never errors."""
        monkeypatch.delenv(NATIVE_ENV_VAR, raising=False)
        monkeypatch.setenv("CC", "/nonexistent/cc")
        assert not toolchain_available()
        kernel, x = _build_once(csr, cache=False)
        out = kernel.run()
        assert kernel.last_engine == "emitted"
        assert np.allclose(out["C"].reshape(csr.rows, 4), spmm_reference(csr, x), atol=1e-4)
        with pytest.raises(UnsupportedForEmission):
            kernel.run(engine="native")

    @pytest.mark.skipif(find_compiler() is None, reason="no C compiler available")
    def test_compiler_without_cffi_declines_to_emitted(self, monkeypatch, csr):
        """A compiler but no ``_cffi_backend`` (the ``native`` extra is not
        installed): the native tier declines with that reason, and the kernel
        runs on the emitted tier, bit for bit with the interpreter."""
        monkeypatch.setitem(sys.modules, "_cffi_backend", None)
        native._get_ffi.cache_clear()
        try:
            why = native.unavailable()
            assert why is not None and "_cffi_backend" in why
            kernel, _ = _build_once(csr, cache=False)
            out = kernel.run()
            assert kernel.last_engine == "emitted"
            assert kernel.declined["native"] == why
            with pytest.raises(UnsupportedForEmission):
                kernel.run(engine="native")
            oracle = kernel.run(engine="interpret")
            for name in out:
                assert out[name].dtype == oracle[name].dtype, name
                assert np.array_equal(out[name], oracle[name]), name
        finally:
            native._get_ffi.cache_clear()

    @needs_cc
    def test_gating_is_not_memoised(self, monkeypatch):
        assert toolchain_available()
        monkeypatch.setenv(NATIVE_ENV_VAR, "off")
        assert not toolchain_available()
        monkeypatch.delenv(NATIVE_ENV_VAR)
        assert toolchain_available()


def _forget_compiled_libs():
    """Drop the process-wide sha -> library memo (simulates a cold process).

    Without this every second build in a test would reuse the already
    dlopened library and never consult the disk layer at all.
    """
    with emit_c._MEMO_LOCK:
        emit_c._LIB_MEMO.clear()


@needs_cc
class TestArtifactCache:
    """A shared object is ``<key>.so``, ``key`` the :func:`artifact_key` of its
    text; each fingerprint's json record names it.  Whatever does not check out
    — a record of another emitter or machine, a key naming no loadable file —
    is a miss that prints the program again: compiled only if the text's own
    ``.so`` is missing too, and the record rewritten."""

    def _warm(self, csr, tmp_path, seed=0):
        _forget_compiled_libs()
        cache = KernelCache(disk=DiskKernelCache(tmp_path))
        kernel, x = _build_once(csr, cache, seed=seed)
        out = kernel.run()
        assert kernel.last_engine == "native"
        assert np.allclose(out["C"].reshape(csr.rows, 4), spmm_reference(csr, x), atol=1e-4)
        return cache

    def _paths(self, cache):
        """``(fingerprint, its text's .so, its json)`` of the one stored program."""
        disk = cache.disk
        key = next(disk.dir.glob("*.pkl")).stem
        json_path = disk.dir / f"{key}.json"
        artifact = json.loads(json_path.read_text())["native"]["key"]
        return key, disk.so_path(artifact), json_path

    def _edit_record(self, json_path, **fields):
        meta = json.loads(json_path.read_text())
        meta["native"].update(fields)
        json_path.write_text(json.dumps(meta))

    def _plant_foreign(self, csr, tmp_path, **fields):
        """Make the directory look written by another emitter or machine: the
        record carries *fields* and names its own artifact; this process's
        ``<key>.so`` is not there."""
        self._warm(csr, tmp_path)
        cache = KernelCache(disk=DiskKernelCache(tmp_path))
        _key, so_path, json_path = self._paths(cache)
        foreign = so_path.with_name("f" * 64 + ".so")
        so_path.rename(foreign)
        self._edit_record(json_path, key=foreign.stem, **fields)
        return so_path, json_path, foreign

    def test_artifact_files_and_validity_record(self, csr, tmp_path):
        cache = self._warm(csr, tmp_path)
        assert cache.stats.native_rebuilds == 1 and cache.stats.native_hits == 0
        key, so_path, json_path = self._paths(cache)
        assert so_path.exists() and [path.suffix for path in cache.disk.dir.glob("*.c")] == []
        record = json.loads(json_path.read_text())["native"]
        assert sorted(record) == ["binding", "key", "native_version", "tag"]
        assert record["native_version"] == NATIVE_VERSION and record["tag"] == native_tag()
        c_source, _binding = emit_c_source(canonical_spmm(csr))
        assert record["key"] == artifact_key(c_source) == so_path.stem != key

    def test_warm_cache_loads_without_compiling(self, csr, tmp_path):
        self._warm(csr, tmp_path)
        cold = self._warm(csr, tmp_path, seed=1)
        assert cold.stats.native_hits == 1 and cold.stats.native_rebuilds == 0

    def test_warm_cache_prints_no_c(self, csr, tmp_path, monkeypatch):
        """The native record names the shared object and stores the listing's
        binding: a warm process loads both and never walks the loop nest —
        until it is asked for the listing, which it prints then."""
        build_module = sys.modules["repro.core.codegen.build"]  # the package exports the function
        self._warm(csr, tmp_path)
        cache = KernelCache(disk=DiskKernelCache(tmp_path))
        _key, _so, json_path = self._paths(cache)
        stored = json.loads(json_path.read_text())["native"]["binding"]
        assert stored["bufs"] == ["C", "A", "B"] and stored["tabs"][0] == ["aux", "J_indptr"]

        def refuse(func):
            raise AssertionError("a warm start re-emitted the C source")

        monkeypatch.setattr(build_module, "emit_c_source", refuse)
        monkeypatch.setattr(emit_c.native, "artifact_key", refuse)  # no C text is hashed either
        _forget_compiled_libs()
        kernel, x = _build_once(csr, cache, seed=9)
        out = kernel.run()
        assert kernel.last_engine == "native" and cache.stats.native_hits == 1
        assert np.allclose(out["C"].reshape(csr.rows, 4), spmm_reference(csr, x), atol=1e-4)
        c_source, binding = emit_c_source(kernel.func)
        assert kernel._tier("native")[0][1] == binding  # tuples all the way down
        monkeypatch.undo()
        assert kernel.native_source() == c_source

    @pytest.mark.parametrize("damage", ["binding", "key"])
    def test_unreadable_record_is_a_miss_that_reemits_and_overwrites(self, csr, tmp_path, damage):
        self._warm(csr, tmp_path)
        cache = KernelCache(disk=DiskKernelCache(tmp_path))
        key, so_path, json_path = self._paths(cache)
        if damage == "binding":
            self._edit_record(json_path, binding={"bufs": ["C"]})
        else:  # no file name of this directory
            self._edit_record(json_path, key="../" + so_path.stem)
        assert cache.disk.get_native(key) is None
        cold = self._warm(csr, tmp_path, seed=10)
        # The text's own object is there: printed again, compiled never.
        assert (cold.stats.native_hits, cold.stats.native_rebuilds) == (1, 0)
        c_source, binding = emit_c_source(canonical_spmm(csr))
        assert cold.disk.get_native(key) == (artifact_key(c_source), binding)

    def test_version_skew_is_a_miss_that_rebuilds(self, csr, tmp_path):
        """Acceptance regression: plant a record (and artifact) of a stale
        emitter version — it must rebuild, never import."""
        so_path, json_path, foreign = self._plant_foreign(
            csr, tmp_path, native_version=NATIVE_VERSION - 1
        )
        cold = self._warm(csr, tmp_path, seed=2)
        assert cold.stats.native_hits == 0 and cold.stats.native_rebuilds == 1
        # Compiled under this version's name and republished; the stale file
        # is another version's and stays out of the way.
        record = json.loads(json_path.read_text())["native"]
        assert record["native_version"] == NATIVE_VERSION and record["key"] == so_path.stem
        assert so_path.exists() and foreign.exists()

    def test_platform_tag_skew_is_a_miss(self, csr, tmp_path):
        so_path, json_path, _foreign = self._plant_foreign(csr, tmp_path, tag="win32-sparc-cpython-27")
        cold = self._warm(csr, tmp_path, seed=3)
        assert cold.stats.native_hits == 0 and cold.stats.native_rebuilds == 1
        assert json.loads(json_path.read_text())["native"]["tag"] == native_tag()

    def test_source_hash_skew_is_a_miss(self, csr, tmp_path):
        """A current record whose key names no file: the load misses, the
        program is printed again, and the record names the text's object."""
        self._warm(csr, tmp_path)
        cache = KernelCache(disk=DiskKernelCache(tmp_path))
        key, so_path, json_path = self._paths(cache)
        self._edit_record(json_path, key="0" * 64)
        cold = self._warm(csr, tmp_path, seed=4)
        assert (cold.stats.native_hits, cold.stats.native_rebuilds) == (1, 0)
        assert cold.disk.get_native(key)[0] == so_path.stem

    def _counted_prints(self, monkeypatch):
        build_module = sys.modules["repro.core.codegen.build"]
        printed, real = [], build_module.emit_c_source
        monkeypatch.setattr(build_module, "emit_c_source", lambda func: printed.append(func.name) or real(func))
        return printed

    def test_corrupt_so_with_valid_record_rebuilds(self, csr, tmp_path, monkeypatch):
        """A truncated shared object behind a valid json record fails to
        dlopen: one print, one compile, the object replaced and the record
        rewritten — never an error.

        The corrupt artifact is planted *without* ever loading its path in
        this process: ``dlopen`` dedupes loaded libraries by path name, so a
        previously loaded good artifact at the same path would mask the
        corruption (a real cold process has no such handle).
        """
        cache = KernelCache(disk=DiskKernelCache(tmp_path))
        kernel, _ = _build_once(csr, cache)
        # Not kernel.native_source(): asking the kernel resolves the whole
        # tier, which would compile and dlopen the artifact at this path.
        c_source, binding = emit_c_source(kernel.func)
        key, artifact = kernel._key, artifact_key(c_source)
        cache.disk.so_path(artifact).write_bytes(b"\x7fELF this is not a shared object")
        cache.disk.publish_native(key, artifact, binding)
        json_path = cache.disk.dir / f"{key}.json"
        inode = json_path.stat().st_ino

        printed = self._counted_prints(monkeypatch)
        cold = self._warm(csr, tmp_path, seed=5)
        assert cold.stats.native_hits == 0 and cold.stats.native_rebuilds == 1 and printed == ["spmm"]
        assert json_path.stat().st_ino != inode and cold.disk.get_native(key) == (artifact, binding)
        # ... and the republished artifact is valid again.
        warm = self._warm(csr, tmp_path, seed=6)
        assert warm.stats.native_hits == 1 and warm.stats.native_rebuilds == 0

    def test_missing_so_with_record_is_a_miss(self, csr, tmp_path, monkeypatch):
        self._warm(csr, tmp_path)
        cache = KernelCache(disk=DiskKernelCache(tmp_path))
        key, so_path, json_path = self._paths(cache)
        so_path.unlink()
        record, inode = cache.disk.get_native(key), json_path.stat().st_ino
        printed = self._counted_prints(monkeypatch)
        cold = self._warm(csr, tmp_path, seed=7)
        assert (cold.stats.native_hits, cold.stats.native_rebuilds) == (0, 1) and printed == ["spmm"]
        assert so_path.exists() and json_path.stat().st_ino != inode
        assert cold.disk.get_native(key) == record

    def test_discard_native_keeps_numpy_payload(self, csr, tmp_path):
        """Dropping the native artifact and its record must not invalidate the
        (independent) lowered-program + emitted-NumPy payload."""
        cache = self._warm(csr, tmp_path)
        _key, so_path, json_path = self._paths(cache)
        so_path.unlink()
        meta = json.loads(json_path.read_text())
        del meta["native"]
        json_path.write_text(json.dumps(meta))
        _forget_compiled_libs()
        cold = KernelCache(disk=DiskKernelCache(tmp_path))
        kernel, _ = _build_once(csr, cold, seed=8)
        assert cold.stats.disk_hits == 1 and cold.stats.lowerings == 0
        kernel.run()
        assert kernel.last_engine == "native"
        assert cold.stats.native_rebuilds == 1


_NATIVE_WARM_SCRIPT = """
import numpy as np
from repro.formats.csr import CSRMatrix
from repro.runtime.session import Session

rng = np.random.default_rng(0)
dense = (rng.random((40, 30)) < 0.2).astype(np.float32)
dense *= rng.standard_normal((40, 30)).astype(np.float32)
csr = CSRMatrix.from_dense(dense)
session = Session()

x = rng.standard_normal((30, 8)).astype(np.float32)
out = session.spmm(csr, x)
assert np.allclose(out, csr.to_scipy() @ x, atol=1e-4)

cache = session.cache.stats
print("STATS", cache.native_hits, cache.native_rebuilds, session.stats.native_runs)
"""


@needs_cc
class TestColdProcessNativeWarmStart:
    def test_second_process_compiles_nothing(self, tmp_path):
        """Acceptance: a cold process finds the warm ``.so`` through the disk
        cache and serves the run natively with zero compilation."""
        env = dict(os.environ, **{CACHE_ENV_VAR: str(tmp_path)})
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

        def run_once():
            proc = subprocess.run(
                [sys.executable, "-c", _NATIVE_WARM_SCRIPT],
                env=env,
                capture_output=True,
                text=True,
                timeout=180,
            )
            assert proc.returncode == 0, proc.stderr
            stats = [
                line for line in proc.stdout.splitlines() if line.startswith("STATS")
            ][0].split()[1:]
            return [int(v) for v in stats]

        native_hits, native_rebuilds, native_runs = run_once()
        assert native_hits == 0 and native_rebuilds == 1
        assert native_runs == 1

        native_hits, native_rebuilds, native_runs = run_once()
        assert native_rebuilds == 0, "warm start re-ran the C compiler"
        assert native_hits == 1
        assert native_runs == 1


@needs_cc
class TestNativeRunnerProtocol:
    def test_runner_built_once_and_reused(self, csr):
        kernel, _ = _build_once(csr, cache=False)
        first = kernel._runner("native")
        second = kernel._runner("native")
        assert first is not None and first is second

    def test_failed_build_decided_once(self, csr, monkeypatch):
        """A compile failure marks the entry so the fallback is decided once
        (no repeated compiler invocations on the hot path)."""
        kernel, x = _build_once(csr, cache=False)
        calls = []

        def failing_compile(c_source, out_path):
            calls.append(out_path)
            raise emit_c.NativeBuildError("injected failure")

        monkeypatch.setattr(emit_c, "compile_so", failing_compile)
        out = kernel.run()
        assert kernel.last_engine == "emitted"
        kernel.run()
        assert len(calls) == 1
        assert np.allclose(out["C"].reshape(csr.rows, 4), spmm_reference(csr, x), atol=1e-4)

    def test_a_rejected_flag_is_diagnosable_from_the_decline(self, csr, tmp_path, monkeypatch):
        """A compiler that refuses a flag fails every native build; the decline
        names the compiler, its version and the command line's flags."""
        fake = tmp_path / "fakecc"
        fake.write_text(
            "#!/bin/sh\n"
            'if [ "$1" = --version ]; then echo "fakecc 0.1 (test)"; echo second line; exit 0; fi\n'
            "echo \"fakecc: error: unrecognized command-line option '-fopenmp-simd'\" >&2\n"
            "exit 1\n"
        )
        fake.chmod(0o755)
        monkeypatch.setenv("CC", str(fake))
        kernel, _ = _build_once(csr, cache=False)
        kernel.run()
        assert kernel.last_engine == "emitted"
        reason = kernel.declined["native"]
        assert reason.startswith("NativeBuildError: C compilation failed (exit 1)")
        assert f"{fake} [fakecc 0.1 (test)] {' '.join(emit_c.CFLAGS)}" in reason
        assert "unrecognized command-line option '-fopenmp-simd'" in reason

    @pytest.mark.skipif(not emit_c._LINK_FLAGS, reason="no link flags on this platform")
    def test_a_linker_that_ignores_a_link_flag_is_named(self, csr, tmp_path, monkeypatch):
        """GNU ld only warns about a ``-z`` keyword it does not know and links
        a page-padded object anyway: the build is refused, flag and linker named."""
        fake = tmp_path / "fakecc"
        fake.write_text(
            "#!/bin/sh\n"
            'case "$1" in\n'
            '  --version) echo "fakecc 0.1 (test)"; exit 0;;\n'
            '  -Wl,--version) echo "collect2 version 0.1"; echo "OLD ld (binutils) 2.25"; exit 0;;\n'
            "esac\n"
            'echo "/usr/bin/ld: warning: -z noseparate-code ignored" >&2\n'
            "exit 0\n"
        )
        fake.chmod(0o755)
        monkeypatch.setenv("CC", str(fake))
        kernel, _ = _build_once(csr, cache=False)
        kernel.run()
        assert kernel.last_engine == "emitted"
        reason = kernel.declined["native"]
        assert reason.startswith(
            "NativeBuildError: linker [OLD ld (binutils) 2.25] does not take -Wl,-z,noseparate-code: "
        )
        assert f"{fake} [fakecc 0.1 (test)] {' '.join(emit_c.CFLAGS)}" in reason

    def test_link_flags_slim_the_artifact(self, csr, tmp_path):
        if not (toolchain_available() and emit_c._LINK_FLAGS):
            pytest.skip("needs a toolchain on a platform with link flags")
        source, _ = emit_c_source(canonical_lowered("spmm_csr"))
        emit_c.compile_so(source, tmp_path / "k.so")
        assert "-Wl,-z,noseparate-code" in emit_c.CFLAGS
        assert (tmp_path / "k.so").stat().st_size < 8192  # code and data share a page
        # ... so .text no longer starts on a page: every function is pinned to
        # a cache line instead of landing wherever the headers end.
        assert "-falign-functions=64" in emit_c.CFLAGS
        symbols = subprocess.run(
            ["nm", "-D", "--defined-only", str(tmp_path / "k.so")], capture_output=True, text=True
        ).stdout.split()
        assert int(symbols[symbols.index("run") - 2], 16) % 64 == 0

    def _runner_and_arrays(self, csr, feat=4):
        kernel, x = _build_once(csr, cache=False, feat=feat)
        source, binding = emit_c_source(kernel.func)
        arrays = {
            "A": csr.data.copy(), "B": x.reshape(-1).copy(),
            "C": np.zeros(csr.rows * feat, dtype=np.float32),
        }
        return emit_c.load_native(kernel.func, source, binding), arrays

    def test_fed_table_replaces_the_bound_one_for_one_call(self, csr):
        """An index table present in the call's arrays is used like a value
        buffer; the next call without it reads the bound table again."""
        run, arrays = self._runner_and_arrays(csr)
        zeros = lambda: np.zeros(csr.rows * 4, dtype=np.float32)  # noqa: E731
        bound = run({**arrays, "C": zeros()})["C"]
        no_rows = np.zeros(csr.rows + 1, dtype=np.int32)
        assert bound.any() and not run({**arrays, "C": zeros(), "J_indptr": no_rows})["C"].any()
        assert np.array_equal(run({**arrays, "C": zeros()})["C"], bound)

    @pytest.mark.parametrize(
        "make, said",
        [
            (lambda n: np.zeros(n, dtype=np.int64), "fed as int64[17]"),
            (lambda n: np.zeros(n - 1, dtype=np.int32), "fed as int32[16]"),
            (lambda n: np.zeros(2 * n, dtype=np.int32)[::2], "fed as int32[17]"),
        ],
        ids=["dtype", "length", "strided"],
    )
    def test_malformed_fed_table_is_a_value_error(self, csr, make, said):
        """Sizes in ``ipar`` stay as compiled, so a table of another layout is
        refused by name — never silently run, never a tier fallback."""
        run, arrays = self._runner_and_arrays(csr)
        with pytest.raises(ValueError) as error:
            run({**arrays, "J_indptr": make(csr.rows + 1)})
        assert f"table 'J_indptr' {said}, bound as contiguous int32[17]" in str(error.value)

    def test_overlapping_operands_are_refused(self, csr):
        """The SIMD marks assert that differently named buffers never overlap;
        a stored buffer handed in under a second name is refused, never run."""
        run, arrays = self._runner_and_arrays(csr)
        expected = run({name: array.copy() for name, array in arrays.items()})["C"]
        shared = np.zeros(max(arrays["B"].size, arrays["C"].size), dtype=np.float32)
        shared[: arrays["B"].size] = arrays["B"]
        aliased = {**arrays, "B": shared[: arrays["B"].size], "C": shared[: arrays["C"].size]}
        with pytest.raises(ValueError, match="'C' is stored to and shares memory with 'B'"):
            run(aliased)
        assert np.array_equal(shared[: arrays["B"].size], arrays["B"])  # nothing ran
        # A partial overlap and a fed index table count too; disjoint views of one
        # allocation do not.
        pool = np.zeros(2 * arrays["C"].size, dtype=np.float32)
        with pytest.raises(ValueError, match="shares memory with 'A'"):
            run({**arrays, "C": pool[: arrays["C"].size], "A": pool[4 : 4 + arrays["A"].size]})
        table = np.zeros(arrays["C"].size, dtype=np.int32)
        table[: csr.rows + 1] = csr.indptr
        with pytest.raises(ValueError, match="shares memory with 'J_indptr'"):
            run({**arrays, "C": table.view(np.float32), "J_indptr": table[: csr.rows + 1]})
        halves = {**arrays, "C": pool[: arrays["C"].size], "A": pool[arrays["C"].size :][: arrays["A"].size]}
        halves["A"][:] = arrays["A"]
        assert np.array_equal(run(halves)["C"], expected)

    def test_overlap_is_found_behind_an_operand_in_between(self, csr):
        """Read-only operands may alias each other; a stored buffer inside one
        of them is found even when another operand sits between the two."""
        run, arrays = self._runner_and_arrays(csr, feat=1)
        a, b, c = (arrays[name].size for name in "ABC")
        assert a >= 2 * b + c
        pool = np.zeros(a, dtype=np.float32)
        inside = {"A": pool, "B": pool[:b], "C": pool[2 * b : 2 * b + c]}
        with pytest.raises(ValueError, match="'C' is stored to and shares memory with 'A'"):
            run(inside)
        run({**inside, "C": np.zeros(c, dtype=np.float32)})  # A and B alias: both only read

    def test_rebound_table_runs_native_and_wrong_length_raises(self, csr):
        kernel, _ = _build_once(csr, cache=False)
        plain = kernel.run()["C"]
        fed = kernel.run({"J_indices": csr.indices.copy()})
        assert kernel.last_engine == "native" and kernel.declined == {}
        assert np.array_equal(fed["C"], plain)
        with pytest.raises(ValueError, match="'J_indices' has .* elements, expected"):
            kernel.run({"J_indices": csr.indices[:-1]})

    def test_session_counts_native_runs(self, csr):
        from repro.runtime.session import Session

        session = Session(persistent=False)
        x = np.random.default_rng(1).standard_normal((csr.cols, 4)).astype(np.float32)
        out = session.spmm(csr, x)
        assert session.stats.native_runs == 1
        assert session.stats.fast_runs == 1
        assert np.allclose(out, spmm_reference(csr, x), atol=1e-4)
