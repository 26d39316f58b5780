"""A warm start loads kernels; it does not bring the compiler.

The import contract is checked where it holds: in a fresh interpreter that
finds every kernel in the disk cache — it opens no ``.c`` and hashes no C text.
The record tests below it check that a fingerprint's json record alone lets the
next process skip the emitters — for every structure of a program family, which
all name one ``<key>.so``, and for a program the C emitter declines — and that a
shared object that is gone, or two processes racing on one text, cost at most
one compile.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.codegen import native
from repro.core.codegen.build import build
from repro.core.codegen.cache import CACHE_ENV_VAR, DiskKernelCache, KernelCache
from repro.core.codegen.native import NATIVE_VERSION, NativeBuildError, toolchain_available
from repro.formats.csr import CSRMatrix
from repro.ops.batched import build_edge_softmax_program
from repro.ops.spmm import build_spmm_program

SRC = Path(__file__).resolve().parents[1] / "src"

needs_cc = pytest.mark.skipif(not toolchain_available(), reason="no C compiler available")

#: What a process that compiles nothing has no use for.  ``emit_numpy`` joins
#: once a program the C emitter declines (softmax: ``exp``) runs, and brings
#: ``hazards`` with it — the emitted tier's loader and the plan-time helper it
#: hands every kernel (``coords_to_positions``) live in those two modules.
#: ``repro.sim`` is the whole simulated world (GPU model, baselines, the CUDA
#: listing): nothing that runs a program is on its side of the wall.
COMPILE_ONLY = (
    "pycparser", "cffi", "cffi.cparser",
    "repro.core.codegen.emit_c", "repro.core.codegen.emit_numpy", "repro.core.codegen.hazards",
    "repro.core.stage2.lowering", "repro.core.stage3.buffer_lowering",
    "repro.sim", "repro.tune", "repro.runtime.executor",
)
EMITTED_TIER = ("repro.core.codegen.emit_numpy", "repro.core.codegen.hazards")

#: Runs in a fresh interpreter: two CSR SpMMs of one program family (so the
#: second prints the first one's text) and an edge softmax through a ``Session``
#: on the cache named by the environment; results to ``argv[1]``, the report —
#: modules loaded after the SpMMs and after the softmax, counters — to stdout.
#: Then the other two execution paths, a compiled graph and a served request,
#: on a second session (the counters above are the eager path's).  Throughout,
#: which ``.c`` files were opened and how many C texts were hashed; last, one
#: kernel's listing, and whether asking for it brought the printer.
CHILD = """
import json, sys
c_files = []
sys.addaudithook(lambda event, args: event == "open" and str(args[0]).endswith(".c") and c_files.append(str(args[0])))
import numpy as np
from repro.core.codegen import native
from repro.formats.csr import CSRMatrix
from repro.runtime.session import Session

hashed, artifact_key = [], native.artifact_key
native.artifact_key = lambda text: hashed.append(len(text)) or artifact_key(text)

def loaded():
    ours = ("repro", "cffi", "pycparser", "_cffi_backend")
    return sorted(name for name in sys.modules if name.split(".")[0] in ours)

gen = np.random.default_rng(7)
first, second = (CSRMatrix.random(rows=rows, cols=20, density=0.3, seed=rows) for rows in (24, 31))
session = Session()
out = {}
for n, matrix in enumerate((first, second)):
    out[f"spmm{n}"] = session.spmm(matrix, gen.standard_normal((20, 8)).astype(np.float32))
after_spmm = loaded()
out["softmax"] = session.edge_softmax(first, gen.standard_normal((2, first.nnz)).astype(np.float32))
np.savez(sys.argv[1], **out)
stats = session.cache.stats
report = {
    "after_spmm": after_spmm, "after_softmax": loaded(), "session": session.stats.as_dict(),
    "cache": {name: getattr(stats, name) for name in
              ("lowerings", "emissions", "native_hits", "native_rebuilds", "disk_hits", "disk_errors")},
}
from repro.serve import Server
features = gen.standard_normal((20, 8)).astype(np.float32)
with Server(Session()) as server:
    g = server.session.graph()
    g.output(g.relu(g.spmm(first, g.input("x", features))))
    g.compile().run({})
    server.spmm(second, features).result(timeout=60)
report["after_graph_and_serve"] = loaded()
report["c_files"], report["c_hashed"] = c_files, len(hashed)
from repro.ops.spmm import build_spmm_program
kernel = session.build(build_spmm_program(first, 8, features))
report["printer_before_listing"] = "repro.core.codegen.emit_c" in sys.modules
report["listing"] = kernel.native_source()
report["printer_after_listing"] = "repro.core.codegen.emit_c" in sys.modules
print(json.dumps(report))
"""


def run_child(cache_dir: Path, out: Path, **env: str) -> dict:
    environ = {**os.environ, CACHE_ENV_VAR: str(cache_dir), "PYTHONPATH": str(SRC), **env}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(out)], env=environ, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def held(report_modules, names):
    """Which of *names* (a module, or a package with anything under it) are loaded."""
    return [name for name in names if any(m == name or m.startswith(name + ".") for m in report_modules)]


class TestImportContract:
    def test_a_warm_process_imports_and_runs_the_load_side_only(self, tmp_path):
        cold = run_child(tmp_path / "kernels", tmp_path / "cold.npz")
        assert cold["cache"]["lowerings"] == 3
        warm = run_child(tmp_path / "kernels", tmp_path / "warm.npz")
        with np.load(tmp_path / "cold.npz") as a, np.load(tmp_path / "warm.npz") as b:
            assert sorted(a) == sorted(b) == ["softmax", "spmm0", "spmm1"]
            for name in a:
                assert a[name].dtype == b[name].dtype and np.array_equal(a[name], b[name]), name
        assert warm["cache"]["disk_hits"] == 3 and warm["cache"]["disk_errors"] == 0
        assert [warm["cache"][name] for name in ("lowerings", "emissions", "native_rebuilds")] == [0, 0, 0]
        assert warm["session"]["interpreted_runs"] == 0
        for report in (cold, warm):  # compiling or not, no path that runs a program prices one
            assert held(report["after_graph_and_serve"], ("repro.sim",)) == []
        if toolchain_available():
            assert held(warm["after_spmm"], COMPILE_ONLY) == []
            assert held(warm["after_softmax"], COMPILE_ONLY) == list(EMITTED_TIER)
            # One text, one dlopen: the duplicate found its library loaded.
            assert (warm["session"]["native_runs"], warm["cache"]["native_hits"]) == (2, 1)
            # A warm load reads records and opens objects: no listing, no hash of
            # one (the cold process shows the hooks see both) ...
            assert cold["c_files"] and cold["c_hashed"] > 0
            assert (warm["c_files"], warm["c_hashed"]) == ([], 0)
            # ... and a listing asked for is printed then, byte for byte the cold one.
            assert not warm["printer_before_listing"] and warm["printer_after_listing"]
            assert warm["listing"] == cold["listing"] and "int run(" in warm["listing"]
        else:
            # Every kernel is the emitted tier's: its loader, and nothing of the
            # native tier — not even the foreign-call layer.
            assert held(warm["after_softmax"], COMPILE_ONLY) == list(EMITTED_TIER)
            assert held(warm["after_softmax"], ("_cffi_backend",)) == []

    def test_without_a_compiler_the_foreign_call_layer_is_never_imported(self, tmp_path):
        """The cache was populated with a toolchain (when there is one); the
        machine that reads it has none."""
        cold = run_child(tmp_path / "kernels", tmp_path / "cold.npz")
        report = run_child(tmp_path / "kernels", tmp_path / "nocc.npz", CC="/nonexistent/cc")
        assert held(report["after_softmax"], ("cffi", "_cffi_backend", "pycparser")) == []
        lowering = ("repro.core.codegen.emit_c", "repro.core.stage2.lowering", "repro.core.stage3.buffer_lowering")
        assert held(report["after_softmax"], lowering) == []  # NumPy source is printed, nothing re-lowered
        assert report["cache"]["lowerings"] == 0 and report["session"]["native_runs"] == 0
        assert report["session"]["emitted_runs"] == 3 and cold["cache"]["lowerings"] == 3
        with np.load(tmp_path / "cold.npz") as a, np.load(tmp_path / "nocc.npz") as b:
            for name in a:  # the tiers are bit-exact with one another
                assert np.array_equal(a[name], b[name]), name

    def test_the_load_side_imports_nothing_of_the_emit_side(self):
        emit_side = ("emit_c", "emit_numpy", "hazards", "stage2", "stage3")
        imported = []
        for node in ast.walk(ast.parse(Path(native.__file__).read_text())):
            if isinstance(node, ast.ImportFrom):
                imported += [node.module or "", *(alias.name for alias in node.names)]
            elif isinstance(node, ast.Import):
                imported += [alias.name for alias in node.names]
        parts = {part for name in imported for part in name.split(".")}
        assert parts.isdisjoint(emit_side) and "cffi" not in parts
        code = (
            "import sys, repro.core.codegen.native, repro.core.codegen.build\n"
            f"print([m for m in sys.modules if m.rsplit('.', 1)[-1] in {emit_side!r} or m == 'cffi'])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0 and proc.stdout.strip() == "[]", proc.stdout + proc.stderr


# -- records ---------------------------------------------------------------------

def programs():
    """Two SpMMs of one family (the second's text is the first's) and a softmax."""
    gen = np.random.default_rng(3)
    first, second = (CSRMatrix.random(rows=rows, cols=12, density=0.3, seed=rows) for rows in (16, 23))
    feats = gen.standard_normal((12, 4)).astype(np.float32)
    scores = gen.standard_normal((2, first.nnz)).astype(np.float32)
    return [
        build_spmm_program(first, 4, feats),
        build_spmm_program(second, 4, feats),
        build_edge_softmax_program(first, 2, scores),
    ]


@pytest.fixture
def printed(monkeypatch):
    """Names of the programs printed as C since the last :func:`fresh_process`."""
    build_module = sys.modules["repro.core.codegen.build"]  # the package exports the function
    names, real = [], build_module.emit_c_source
    monkeypatch.setattr(build_module, "emit_c_source", lambda func: names.append(func.name) or real(func))
    with native._MEMO_LOCK:
        saved = dict(native._LIB_MEMO)
    yield names
    with native._MEMO_LOCK:
        native._LIB_MEMO.update(saved)


def fresh_process(root, printed):
    """What a new process starts with: no loaded library, nothing printed, an
    empty memory cache over the directory."""
    with native._MEMO_LOCK:
        native._LIB_MEMO.clear()
    printed.clear()
    return KernelCache(disk=DiskKernelCache(root))


def run_all(cache):
    kernels = [build(func, cache=cache) for func in programs()]
    return kernels, [kernel.run() for kernel in kernels]


def native_records(root):
    """fingerprint -> its json ``native`` record, for every stored program."""
    records = {}
    for path in DiskKernelCache(root).dir.glob("*.json"):
        records[path.stem] = json.loads(path.read_text()).get("native")
    return records


#: Runs in a fresh interpreter: one CSR SpMM per ``argv`` row count, all of one
#: program family, on the cache named by the environment; prints
#: ``[native_hits, native_rebuilds, native_runs]``.
FAMILY = """
import json, sys
import numpy as np
from repro.formats.csr import CSRMatrix
from repro.runtime.session import Session
session = Session()
for rows in map(int, sys.argv[1:]):
    matrix = CSRMatrix.random(rows=rows, cols=20, density=0.3, seed=rows)
    session.spmm(matrix, np.ones((20, 8), dtype=np.float32))
stats = session.cache.stats
print(json.dumps([stats.native_hits, stats.native_rebuilds, session.stats.native_runs]))
"""


@needs_cc
class TestRecords:
    def test_every_record_is_sufficient_on_its_own(self, tmp_path, printed):
        cache = fresh_process(tmp_path, printed)
        kernels, cold = run_all(cache)
        assert printed == ["spmm", "spmm", "edge_softmax"] and cache.stats.native_rebuilds == 1
        assert [kernel.last_engine for kernel in kernels] == ["native", "native", "emitted"]
        records = native_records(tmp_path)
        first, second, declined = (records[kernel._key] for kernel in kernels)
        # One record shape for every structure of the family: one key, two bindings.
        assert sorted(first) == sorted(second) == ["binding", "key", "native_version", "tag"]
        assert first["key"] == second["key"] and first["binding"] != second["binding"]
        reason = kernels[2].declined["native"]
        assert declined == {"native_version": NATIVE_VERSION, "native_declined": reason}
        assert declined["native_declined"].startswith("UnsupportedForC: ")
        # One shared object for the two fingerprints of the text, named by it; no listing.
        stored = sorted(path.suffix for path in cache.disk.dir.iterdir())
        assert [suffix for suffix in stored if suffix in (".c", ".so")] == [".so"]
        assert cache.disk.so_path(first["key"]).exists()

        cache = fresh_process(tmp_path, printed)
        kernels, warm = run_all(cache)
        assert printed == [] and (cache.stats.native_hits, cache.stats.native_rebuilds) == (1, 0)
        assert cache.stats.lowerings == cache.stats.emissions == 0
        assert [kernel.last_engine for kernel in kernels] == ["native", "native", "emitted"]
        assert kernels[2].declined["native"] == declined["native_declined"]
        assert kernels[1].native_source() == kernels[0].native_source()
        for a, b in zip(cold, warm):
            assert all(np.array_equal(a[name], b[name]) for name in a)

    def test_a_fingerprint_without_a_record_is_completed_once(self, tmp_path, printed):
        cache = fresh_process(tmp_path, printed)
        kernels, cold = run_all(cache)
        # A json without a native record (a crash between the object and the
        # record): a second structure of the family, and the declined program.
        for kernel in kernels[1:]:
            path = cache.disk._path(kernel._key, ".json")
            meta = json.loads(path.read_text())
            del meta["native"]
            path.write_text(json.dumps(meta))
        before = sorted(path.name for path in cache.disk.dir.iterdir() if path.suffix != ".json")

        cache = fresh_process(tmp_path, printed)
        kernels, second = run_all(cache)
        assert printed == ["spmm", "edge_softmax"]  # exactly those two kinds, once
        assert cache.stats.lowerings == 0 and cache.stats.native_rebuilds == 0
        records = native_records(tmp_path)
        assert records[kernels[1]._key]["key"] == records[kernels[0]._key]["key"]
        assert "native_declined" in records[kernels[2]._key]
        assert sorted(path.name for path in cache.disk.dir.iterdir() if path.suffix != ".json") == before

        cache = fresh_process(tmp_path, printed)
        _kernels, third = run_all(cache)
        assert printed == [] and cache.stats.native_rebuilds == 0
        for a, b, c in zip(cold, second, third):
            assert all(np.array_equal(a[name], b[name]) and np.array_equal(a[name], c[name]) for name in a)

    def test_a_shared_object_that_is_gone_is_rebuilt_once(self, tmp_path, printed):
        cache = fresh_process(tmp_path, printed)
        kernels, cold = run_all(cache)
        (so_path,) = cache.disk.dir.glob("*.so")
        so_path.unlink()
        cache = fresh_process(tmp_path, printed)
        kernels, warm = run_all(cache)
        # The first fingerprint of the text misses: it prints and compiles, and
        # the second finds the rebuilt library; nothing stale was loaded.
        assert printed == ["spmm"] and (cache.stats.native_hits, cache.stats.native_rebuilds) == (0, 1)
        assert [kernel.last_engine for kernel in kernels] == ["native", "native", "emitted"]
        assert so_path.exists() and len(list(cache.disk.dir.glob("*.so"))) == 1
        for a, b in zip(cold, warm):
            assert all(np.array_equal(a[name], b[name]) for name in a)

    def test_two_processes_racing_on_one_text_leave_one_object(self, tmp_path):
        environ = {**os.environ, CACHE_ENV_VAR: str(tmp_path), "PYTHONPATH": str(SRC)}

        def start(*rows):
            return subprocess.Popen(
                [sys.executable, "-c", FAMILY, *map(str, rows)], env=environ,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )

        def report(proc):
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err[-2000:]
            return json.loads(out.strip().splitlines()[-1])

        racers = [start(24), start(31)]  # two structures, one text, both cold
        assert [report(proc)[2] for proc in racers] == [1, 1]
        (so_path,) = DiskKernelCache(tmp_path).dir.glob("*.so")
        assert {record["key"] for record in native_records(tmp_path).values()} == {so_path.stem}
        # Whichever compile landed last is the file, and it loads.
        assert report(start(24, 31)) == [1, 0, 2]

    def test_a_decline_of_another_emitter_version_is_ignored(self, tmp_path, printed):
        cache = fresh_process(tmp_path, printed)
        softmax = build(programs()[2], cache=cache)
        softmax.run()
        path = cache.disk._path(softmax._key, ".json")
        meta = json.loads(path.read_text())
        meta["native"]["native_version"] = NATIVE_VERSION + 1
        meta["native"]["native_declined"] = "said an emitter this process is not"
        path.write_text(json.dumps(meta))
        assert cache.disk.get_native_decline(softmax._key) is None
        cache = fresh_process(tmp_path, printed)
        softmax = build(programs()[2], cache=cache)
        softmax.run()
        assert printed == ["edge_softmax"] and softmax.declined["native"].startswith("UnsupportedForC: ")
        assert native_records(tmp_path)[softmax._key]["native_version"] == NATIVE_VERSION

    def test_what_the_machine_lacks_is_never_persisted(self, tmp_path, printed, monkeypatch):
        """Only a property of the program is stored: a toolchain that appears,
        or starts working, is used by the next process."""
        cache = fresh_process(tmp_path, printed)
        monkeypatch.setenv("CC", "/nonexistent/cc")
        kernels, cold = run_all(cache)
        assert all(kernel.declined["native"] == "no toolchain" for kernel in kernels) and printed == []
        assert all(record is None for record in native_records(tmp_path).values())
        monkeypatch.delenv("CC")

        def broken(c_source, out_path):
            raise NativeBuildError("injected compile error")

        cache = fresh_process(tmp_path, printed)
        with monkeypatch.context() as patch:
            patch.setattr(native, "compile_so", broken)
            spmm = build(programs()[0], cache=cache)
            spmm.run()
            assert spmm.declined["native"] == "NativeBuildError: injected compile error"
        assert native_records(tmp_path)[spmm._key] is None

        cache = fresh_process(tmp_path, printed)
        kernels, warm = run_all(cache)
        assert [kernel.last_engine for kernel in kernels] == ["native", "native", "emitted"]
        assert "native" not in kernels[0].declined and cache.stats.native_rebuilds == 1
        for a, b in zip(cold, warm):
            assert all(np.array_equal(a[name], b[name]) for name in a)
