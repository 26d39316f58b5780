"""Timing loops, sample statistics and the run record shared by all workloads.

A workload is a module with two functions::

    setup(ctx)            -> state   # inputs, cold compile, warm-up
    measure(ctx, state)              # the timed window, through ctx.ours/ctx.ref

``ctx.ours(case, fn)`` times one unit of work of the system under test and
brackets it for the tracer; ``ctx.ref(case, fn)`` times the independent
reference on the same inputs; ``ctx.check(case, ok)`` counts a result
outside tolerance as a failed operation.  Everything else — summaries, the
JSON record, set-up repetitions in child processes — lives here so that no
workload re-implements it.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent

#: The one place workloads, metric names, units, directions and bounds are written down.
MANIFEST = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def geomean(values: Sequence[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail_percentile(n: int) -> int:
    """The highest percentile with at least ten samples beyond it."""
    if n >= 1000:
        return 99
    if n >= 200:
        return 95
    return 90


def percentile(sorted_values: Sequence[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, max(0, math.ceil(q / 100.0 * len(sorted_values)) - 1))
    return sorted_values[index]


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """n, median, quartiles, mean and the supported tail percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return {"n": 0, "median": 0.0, "q1": 0.0, "q3": 0.0, "mean": 0.0, "tail_pct": 0, "tail": 0.0}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    pct = tail_percentile(n)
    return {
        "n": n,
        "median": statistics.median(ordered),
        "q1": q1,
        "q3": q3,
        "mean": sum(ordered) / n,
        "tail_pct": pct,
        "tail": percentile(ordered, pct),
    }


# ---------------------------------------------------------------------------
# the measurement context
# ---------------------------------------------------------------------------

class Context:
    """Seed, clock, sample store and tracer hook of one workload run."""

    def __init__(self, workload: str, seed: int, seconds: float, tracer: Any = None,
                 run_dir: Optional[Path] = None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.run_dir = run_dir
        self.ours_s: Dict[str, List[float]] = defaultdict(list)
        self.ref_s: Dict[str, List[float]] = defaultdict(list)
        self.tags: Dict[str, List[Optional[str]]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.extra: Dict[str, float] = {}      # workload-specific per-layer numbers
        self.case_info: Dict[str, Dict[str, Any]] = {}
        self.recording = False
        self.fault: Optional[str] = None       # injected by the self-test
        self.traced = tracer is not None       # stays true while wrappers are removed
        # Filled by a workload whose units are child processes (cold-start):
        # the children's span self times, counter deltas and exact counts.
        self.child_spans: Dict[str, float] = {}
        self.child_counters: Dict[str, float] = {}
        self.child_facts: Dict[str, float] = {}
        self._probe: Optional[str] = None
        self._probe_calls = 0
        self._probe_alloc = 0

    # -- phases ---------------------------------------------------------------------
    def start_timed(self) -> float:
        """Switch from set-up to the timed window; returns its deadline."""
        gc.collect()
        self.recording = True
        if self.tracer is not None:
            self.tracer.phase = "timed"
        return time.perf_counter() + self.seconds

    def stop_timed(self) -> None:
        self.recording = False
        if self.tracer is not None:
            self.tracer.phase = "after"

    # -- one unit ---------------------------------------------------------------------
    def ours(self, case: str, fn: Callable[[], Any], tag: Optional[str] = None,
             started: Optional[float] = None) -> Any:
        """Run and time one unit of the system under test.

        ``started`` overrides the start of the interval (an open loop times
        each request from when it was due, not from when it was sent).  An
        exception counts as a failed operation and returns ``None``.
        """
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_unit(case)
        t0 = time.perf_counter()
        try:
            result = fn() if self._probe is None else self._probed(fn)
        except Exception as exc:  # the benchmark must keep running and count it
            result = None
            self._fail(case, f"{type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end_unit()
        self.attempted += 1
        if self.recording:
            self.ours_s[case].append(t1 - (t0 if started is None else started))
            self.tags[case].append(tag)
        return result

    def ref(self, case: str, fn: Callable[[], Any]) -> Any:
        t0 = time.perf_counter()
        result = fn()
        t1 = time.perf_counter()
        if self.recording:
            self.ref_s[case].append(t1 - t0)
        return self.faulty(result)

    def faulty(self, expected: Any) -> Any:
        """The reference result, doubled when the self-test injects a wrong reference."""
        if self.fault != "wrong-reference" or expected is None:
            return expected
        if isinstance(expected, (list, tuple)):
            return type(expected)(self.faulty(part) for part in expected)
        return expected * 2

    def check(self, case: str, ok: bool, what: str = "output outside tolerance") -> None:
        if not ok:
            self._fail(case, what)

    def _fail(self, case: str, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{case}: {what}")

    # -- exact per-unit counts -----------------------------------------------------------
    def _probed(self, fn: Callable[[], Any]) -> Any:
        if self._probe == "calls":
            count = 0

            def hook(_frame: Any, event: str, _arg: Any) -> None:
                nonlocal count
                if event == "call" or event == "c_call":
                    count += 1

            sys.setprofile(hook)
            try:
                return fn()
            finally:
                sys.setprofile(None)
                self._probe_calls += count
        tracemalloc.start()
        try:
            return fn()
        finally:
            self._probe_alloc += tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()

    def probe_units(self, steps: Sequence[Callable[[], None]]) -> Dict[str, float]:
        """Python calls and peak allocation of one warm unit per case, summed.

        Counted on the calling thread with ``sys.setprofile`` / ``tracemalloc``
        outside the timed window; both repeat exactly on unchanged code.
        """
        for probe in ("calls", "alloc"):
            self._probe = probe
            try:
                for step in steps:
                    step()
            finally:
                self._probe = None
        return {"py_calls": self._probe_calls, "alloc_kb": self._probe_alloc / 1024.0}

    def reset_samples(self) -> None:
        self.ours_s.clear()
        self.ref_s.clear()
        self.tags.clear()

    # -- summaries ---------------------------------------------------------------------
    def case_rows(self) -> List[Dict[str, Any]]:
        rows = []
        for case, samples in self.ours_s.items():
            ours = summarize(samples)
            ref = summarize(self.ref_s.get(case, []))
            row = {
                "case": case,
                "n": ours["n"],
                "median_ms": ours["median"] * 1e3,
                "q1_ms": ours["q1"] * 1e3,
                "q3_ms": ours["q3"] * 1e3,
                "mean_ms": ours["mean"] * 1e3,
                "tail_pct": ours["tail_pct"],
                "tail_ms": ours["tail"] * 1e3,
                "ref_n": ref["n"],
                "ref_median_ms": ref["median"] * 1e3,
                "ref_ratio": paired_ratio(samples, self.ref_s.get(case, []), self.tags[case]),
            }
            row.update(self.case_info.get(case, {}))
            rows.append(row)
        return rows


def paired_ratio(ours: Sequence[float], ref: Sequence[float], tags: Sequence[Optional[str]]) -> float:
    """ours / reference of one case, base = the reference.

    Each unit is divided by the reference run right after it on the same
    inputs, and the median of those per-unit ratios is taken: machine speed
    on this class of box shifts by up to 2x for seconds at a time, and a
    ratio of two samples taken a millisecond apart cancels the shift where a
    ratio of two medians does not.  Units of different kinds (``tags``: a
    plain edit window, one that also compacted) are summarised separately
    and weighted by how often each kind occurred, so a rare expensive kind
    counts by its share of the work instead of vanishing under the median.
    """
    by_kind: Dict[Optional[str], List[float]] = defaultdict(list)
    for o, r, tag in zip(ours, ref, tags):
        if r > 0:
            by_kind[tag].append(o / r)
    total = sum(len(v) for v in by_kind.values())
    if not total:
        return 0.0
    return sum(len(v) / total * statistics.median(v) for v in by_kind.values())


def median_ms(fn: Callable[[], Any], repeats: int = 5) -> float:
    """Median milliseconds of *fn* after one warming call (layer splits, untimed window)."""
    fn()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e3


#: Fields of the public ``cache.stats`` reported as ``cache.<name>``.
CACHE_COUNTERS = ("hits", "misses", "lowerings", "emissions", "disk_hits", "native_hits",
                  "native_rebuilds")


def session_counters(session: Any) -> Dict[str, float]:
    """The public ``SessionStats`` and ``cache.stats`` of a session, by metric name."""
    counters = {f"session.{k}": v for k, v in session.stats.as_dict().items()}
    cache_stats = getattr(session.cache, "stats", None)
    for name in CACHE_COUNTERS:
        counters[f"cache.{name}"] = getattr(cache_stats, name, 0)
    return counters


def closed_loop(ctx: Context, steps: Sequence[Callable[[], None]], block: int = 3) -> None:
    """One client; cases visited round-robin in blocks of ``block`` units.

    Visiting every case across the whole window — never one case after
    another — spreads any drift in machine speed over all of them.
    """
    deadline = ctx.start_timed()
    while time.perf_counter() < deadline:
        for step in steps:
            for _ in range(block):
                step()
    ctx.stop_timed()


# ---------------------------------------------------------------------------
# process-level measurements
# ---------------------------------------------------------------------------

def peak_rss_mb(children: bool = True) -> float:
    """``ru_maxrss`` of this process and, optionally, of its waited children."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # Linux reports KiB


def artifact_stats(cache_dir: Path) -> Dict[str, float]:
    """Sizes of what the compiler left in a kernel-cache directory."""
    sizes = {".py": 0, ".c": 0, ".so": 0}
    files = 0
    if cache_dir.is_dir():
        for path in cache_dir.rglob("*"):
            if path.is_file() and path.suffix != ".flight":
                files += 1
                if path.suffix in sizes:
                    sizes[path.suffix] += path.stat().st_size
    return {
        "artifact_kb": sum(sizes.values()) / 1024.0,
        "numpy_source_bytes": sizes[".py"],
        "c_source_bytes": sizes[".c"],
        "so_bytes": sizes[".so"],
        "artifacts": files,
    }


def calibrate() -> float:
    """Milliseconds of a fixed SciPy SpMM + NumPy matmul loop (machine speed)."""
    import numpy as np
    import scipy.sparse as sp

    rng = np.random.default_rng(12345)
    a = sp.random(4000, 4000, density=0.002, format="csr", dtype=np.float32, random_state=rng)
    x = rng.standard_normal((4000, 16)).astype(np.float32)
    d = rng.standard_normal((256, 256)).astype(np.float32)
    a @ x
    d @ d
    rounds = []
    for _ in range(9):
        t0 = time.perf_counter()
        for _ in range(20):
            a @ x
            d @ d
        rounds.append(time.perf_counter() - t0)
    return min(rounds) * 1e3   # the fastest round: speed, not scheduling luck


def _command_output(argv: List[str]) -> Optional[str]:
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip().splitlines()[0] if proc.returncode == 0 and proc.stdout else None


def machine_fingerprint() -> Dict[str, Any]:
    import numpy
    import scipy

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import cffi

        cffi_version: Optional[str] = cffi.__version__
    except ImportError:
        cffi_version = None
    try:
        from repro.core.codegen.emit_c import CFLAGS

        cflags: Optional[List[str]] = list(CFLAGS)
    except ImportError:
        cflags = None
    return {
        "cpu": cpu or platform.processor(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cffi": cffi_version,
        "cc": _command_output([os.environ.get("CC", "cc"), "--version"]),
        "cflags": cflags,
        "git_commit": _command_output(["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"]),
        "loadavg": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def run_child(args: List[str], env: Dict[str, str], timeout: float = 170.0) -> Dict[str, Any]:
    """Run ``bench/run.py <args>`` to its end; its last stdout line is JSON.

    The child is always waited for (or killed and then waited for), so no
    process outlives the benchmark.
    """
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"child {proc.args[2:]} timed out after {timeout}s")
    if proc.returncode != 0:
        raise RuntimeError(f"child {proc.args[2:]} exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])
