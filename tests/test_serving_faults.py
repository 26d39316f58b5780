"""Fault injection for the kernel caches a server runs on: stampedes, corruption.

The claims under test:

* **Single flight** — N threads of one process building one cold structure
  perform exactly *one* lowering between them, and a lowering that raises
  frees the structure for the next builder.  Cold processes sharing a disk
  cache directory each lower for themselves, agree bit for bit and leave one
  set of files.
* **Corruption** — a garbage payload in the shared disk cache is detected,
  counted, and rebuilt around, in this process and in fresh ones.
"""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.core.codegen.build import build
from repro.core.codegen.cache import DiskKernelCache, KernelCache
from repro.core.codegen.native import toolchain_available
from repro.formats.csr import CSRMatrix
from repro.ops.spmm import build_spmm_program, spmm_reference
from repro.runtime.session import Session

SRC = Path(__file__).resolve().parents[1] / "src"

#: Runs in a fresh interpreter: reads a CSR matrix and its features from the
#: ``.npz`` ``argv[1]``, opens a session on the cache directory ``argv[2]``,
#: sleeps until the instant ``argv[3]`` (``time.time()``; every child of a
#: stampede gets the same one, so they all go at once), runs one SpMM, saves
#: the answer to ``argv[4]`` and prints how many lowerings it ran.
CHILD = """
import json, sys, time
import numpy as np
from repro.formats.csr import CSRMatrix
from repro.runtime.session import Session
inputs, cache_dir, start, out = sys.argv[1:]
arrays = np.load(inputs)
csr = CSRMatrix(tuple(map(int, arrays["shape"])), arrays["indptr"], arrays["indices"], arrays["data"])
session = Session(persistent=cache_dir, tuning_records=False)
time.sleep(max(float(start) - time.time(), 0.0))
np.save(out, session.spmm(csr, arrays["x"]))
print(json.dumps({"lowerings": session.cache.stats.lowerings}))
"""

#: How far ahead of the launch a stampede's start barrier lies: long enough
#: for every child to import the package cold.
START_DELAY_S = 3.0


def _csr(seed=0, rows=40, cols=32, density=0.2):
    rng = np.random.default_rng(seed)
    dense = (rng.random((rows, cols)) < density).astype(np.float32)
    dense *= rng.random((rows, cols)).astype(np.float32)
    return CSRMatrix.from_dense(dense)


def _run_children(tmp_path, cache_dir, csr, x, children, start=0.0):
    """Run *children* cold processes of :data:`CHILD` on one cache directory;
    one report per child, its answer under ``"out"``."""
    inputs = tmp_path / "inputs.npz"
    np.savez(
        inputs, shape=np.array(csr.shape), indptr=csr.indptr, indices=csr.indices,
        data=csr.data, x=x,
    )
    environ = {**os.environ, "PYTHONPATH": str(SRC)}
    outs = [tmp_path / f"out{child}.npy" for child in range(children)]
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", CHILD, str(inputs), str(cache_dir), repr(start), str(out)],
            env=environ, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for out in outs
    ]
    reports = []
    for proc, out in zip(procs, outs):
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr[-2000:]
        report = json.loads(stdout.strip().splitlines()[-1])
        report["out"] = np.load(out)
        reports.append(report)
    return reports


class TestThreadStampede:
    def test_cold_threads_share_one_lowering(self):
        """8 threads racing a cold session: exactly one lowering happens."""
        csr = _csr(seed=1)
        session = Session(persistent=False)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((csr.cols, 4)).astype(np.float32)
        expected = spmm_reference(csr, x)
        threads_n = 8
        barrier = threading.Barrier(threads_n)
        errors = []

        def worker():
            try:
                barrier.wait()
                out = session.spmm(csr, x)
                assert np.allclose(out, expected, atol=1e-4)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(repr(exc))

        threads = [threading.Thread(target=worker) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        stats = session.cache.stats
        assert stats.lowerings == 1
        # Every call is a kernel-cache lookup, or (a thread scheduled after
        # the first one finished) a hit on the handle that one memoised.
        assert stats.hits + stats.misses + session.stats.handle_hits == threads_n

    def test_failed_lowering_frees_its_key(self, monkeypatch):
        """The first lowering raises while a second thread waits on its key:
        the waiter is not stranded, it lowers the program itself."""
        import repro.core.stage2.lowering as lowering

        real = lowering.lower_sparse_iterations
        entered, release = threading.Event(), threading.Event()
        calls = []

        def fails_first(func):
            calls.append(threading.current_thread().name)
            if len(calls) == 1:
                entered.set()
                release.wait(timeout=30)
                raise RuntimeError("injected lowering failure")
            return real(func)

        monkeypatch.setattr(lowering, "lower_sparse_iterations", fails_first)
        csr = _csr(seed=15)
        x = np.random.default_rng(16).standard_normal((csr.cols, 4)).astype(np.float32)
        cache = KernelCache(disk=None)
        outcome = {}

        def builder(who):
            try:
                outcome[who] = build(build_spmm_program(csr, 4, x), cache=cache)
            except Exception as exc:
                outcome[who] = exc

        owner = threading.Thread(target=builder, args=("owner",), daemon=True)
        owner.start()
        assert entered.wait(timeout=30)
        waiter = threading.Thread(target=builder, args=("waiter",), daemon=True)
        waiter.start()
        # Let the waiter miss and queue on the key's lock before the owner fails.
        deadline = time.monotonic() + 30
        while cache.stats.misses < 2 and time.monotonic() < deadline:
            time.sleep(0.001)
        release.set()
        owner.join(timeout=30)
        waiter.join(timeout=30)
        assert not waiter.is_alive(), "a failed lowering kept its key locked"
        assert isinstance(outcome["owner"], RuntimeError)
        assert not outcome["waiter"].cache_hit and len(calls) == 2
        out = outcome["waiter"].run()["C"].reshape(csr.rows, 4)
        assert np.allclose(out, spmm_reference(csr, x), atol=1e-4)
        assert cache.stats.lowerings == 1 and cache._lowerings == {}
        # The stored entry serves the next build.
        assert build(build_spmm_program(csr, 4, x), cache=cache).cache_hit


class TestProcessStampede:
    def test_cold_workers_agree_and_share_one_set_of_files(self, tmp_path):
        """4 cold processes, one shared cache dir, simultaneous release: each
        may lower for itself, but every answer is correct and identical, and
        the directory holds one file of each kind."""
        csr = _csr(seed=3)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((csr.cols, 4)).astype(np.float32)
        cache_dir = tmp_path / "cache"
        results = _run_children(
            tmp_path, cache_dir, csr, x, children=4, start=time.time() + START_DELAY_S
        )
        assert all(res["lowerings"] <= 1 for res in results)
        baseline = results[0]["out"]
        for res in results[1:]:
            assert np.array_equal(res["out"], baseline)
        assert np.allclose(baseline, spmm_reference(csr, x), atol=1e-4)
        # Atomic writes and a text-named shared object: however many children
        # lowered and compiled, one program, one record, one artifact.
        artifact = ".so" if toolchain_available() else ".py"
        files = sorted(path.suffix for path in DiskKernelCache(cache_dir).dir.iterdir())
        assert files == sorted([".pkl", ".json", artifact]), files


class TestDiskCorruption:
    def test_corrupt_entry_is_rebuilt(self, tmp_path):
        """Garbage bytes in a shared cache entry: detected, counted, rebuilt."""
        csr = _csr(seed=11)
        rng = np.random.default_rng(12)
        x = rng.standard_normal((csr.cols, 4)).astype(np.float32)
        warm = Session(persistent=tmp_path)
        expected = warm.spmm(csr, x)
        payloads = list(warm.cache.disk.dir.glob("*.pkl"))
        assert payloads
        for payload in payloads:
            payload.write_bytes(b"not a pickle")
        cold = Session(persistent=tmp_path)
        out = cold.spmm(csr, x)
        assert np.array_equal(out, expected)
        assert cold.cache.disk.stats.errors >= 1
        assert cold.cache.stats.lowerings == 1  # rebuilt around the corruption
        # The rebuilt entry replaced the garbage: a third session warm-starts.
        rebuilt = Session(persistent=tmp_path)
        assert np.array_equal(rebuilt.spmm(csr, x), expected)
        assert rebuilt.cache.stats.lowerings == 0

    def test_corrupt_entry_in_worker_pool(self, tmp_path):
        """Cold processes sharing a poisoned cache dir still answer correctly."""
        csr = _csr(seed=13)
        rng = np.random.default_rng(14)
        x = rng.standard_normal((csr.cols, 3)).astype(np.float32)
        cache_dir = tmp_path / "cache"
        warm = Session(persistent=cache_dir)
        expected = warm.spmm(csr, x)
        poisoned = list(warm.cache.disk.dir.glob("*.pkl"))
        assert poisoned
        for payload in poisoned:
            payload.write_bytes(b"\x00garbage\x00")
        results = _run_children(tmp_path, cache_dir, csr, x, children=2)
        for res in results:
            assert np.array_equal(res["out"], expected)
