#!/usr/bin/env python3
"""Self-test of the benchmark: names, limits, determinism, fault counting.

    python3 bench/selftest.py            # or: python3 -m pytest bench -q

It runs ``run.py --smoke`` (1.5 s windows, one set-up) in child processes
and writes only under ``bench/out/selftest-<pid>``, which it removes.  It
needs the system under test at ``src/repro``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(REPO_ROOT / "src")]

import compare  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
#: Counts that must repeat exactly on unchanged code and one seed.
EXACT = ("lower.stage3_script_lines", "unit.py_calls", "cache.lowerings", "cache.misses",
         "emit.cc_invocations", "emit.c_source_bytes", "emit.numpy_source_bytes")


@pytest.fixture(scope="module")
def out_dir():
    path = BENCH_DIR / "out" / f"selftest-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def smoke(out: Path, *extra: str, workload: str = "eager-small", seed: int = 7, trace: int = 0,
          cwd: Path = REPO_ROOT, script: Path = BENCH_DIR / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--smoke", "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), "--out", str(out), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def summary(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tree_state() -> dict:
    """Every file outside ``bench/out`` and bytecode caches, with size and mtime."""
    state = {}
    for path in REPO_ROOT.rglob("*"):
        parts = path.relative_to(REPO_ROOT).parts
        if (path.is_file() and parts[0] != ".git" and "__pycache__" not in parts
                and ".pytest_cache" not in parts and parts[:2] != ("bench", "out")):
            stat = path.stat()
            state[str(path)] = (stat.st_size, stat.st_mtime_ns)
    return state


def test_benchmark_json_is_within_limits_and_every_workload_has_a_module():
    manifest = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(run.MODULES)
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in manifest[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    for metric in manifest["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    for workload in manifest["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_output_names_equal_benchmark_json_and_no_side_effects(out_dir):
    manifest = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    before = tree_state()
    untraced = summary(smoke(out_dir, trace=0))
    traced = summary(smoke(out_dir, trace=1))
    assert tree_state() == before, "the benchmark wrote outside --out"
    for record, key in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert set(record) == {"correct", "attempted", "failed", "metrics"}
        assert record["correct"] is True and record["failed"] == 0 and record["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in manifest[key]}
        assert {n: m["unit"] for n, m in record["metrics"].items()} == expected
        assert all(isinstance(m["value"], (int, float)) for m in record["metrics"].values())
    assert all(untraced["metrics"][m["name"]]["value"] > 0 for m in manifest["end_to_end"])
    full = json.loads((out_dir / "eager-small-seed7-trace1.json").read_text())
    assert full["claim"] is None and full["missing"] == []
    assert (out_dir / "eager-small-trace.json").is_file()

    again = summary(smoke(out_dir, trace=1))
    for name in EXACT:
        assert again["metrics"][name] == traced["metrics"][name], name


def test_same_seed_same_inputs_other_seed_other_inputs():
    import inputs
    import refs
    import wl_dynamic
    import wl_eager
    import wl_serve

    def fingerprints(seed: int) -> list:
        from repro.runtime.session import Session

        plan = wl_serve.schedule(seed, "serve-burst")
        _csr, edges = wl_dynamic.make_matrix(seed, "cora")
        script = wl_dynamic.EditScript(edges, seed, "cora", 64, 32)
        cases = wl_eager.build_cases("eager-small", seed, Session(persistent=False))
        assert isinstance(edges, refs.EdgeSet)
        return [inputs.digest(plan["due_s"], plan["combo"], plan["first_input"]),
                script.digest(12), *(case.digest for case in cases)]

    first, again, other = fingerprints(3), fingerprints(3), fingerprints(4)
    assert first == again
    assert all(a != b for a, b in zip(first, other))


def test_injected_faults_are_counted(out_dir):
    wrong = summary(smoke(out_dir, "--fault", "wrong-reference"))
    assert wrong["correct"] is False and 0 < wrong["failed"] <= wrong["attempted"]

    missing = summary(smoke(out_dir, "--fault", "missing-layer", trace=1))
    assert missing["correct"] is True
    full = json.loads((out_dir / "eager-small-seed7-trace1.json").read_text())
    assert full["missing"] == ["missing:repro.ops.registry:no_such_function"]

    # A cold-start child that keeps failing ends the window and is counted.
    broken = summary(smoke(out_dir, "--fault", "failing-child", workload="cold-start"))
    assert broken["correct"] is False and broken["failed"] >= 2


def test_refuses_to_run_without_the_system_under_test(out_dir):
    bare = out_dir / "bare"
    shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(REPO_ROOT / "BENCHMARK.json", bare)
    proc = smoke(bare / "out", cwd=bare, script=bare / "bench" / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_compare_verdicts():
    lower = dict(better="lower", bound=0.10, self_check=False, limit_spread=True)
    steady = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    assert compare.judge(steady, [v * 0.8 for v in steady], **lower) == "improved"
    assert compare.judge(steady, [v * 1.02 for v in steady], **lower) == "no worse"
    assert compare.judge(steady, [v * 1.3 for v in steady], **lower) == "regressed"
    noisy = [1.0, 1.4, 0.7, 1.2, 0.8, 1.5, 0.9, 1.1, 0.6, 1.3]
    assert compare.judge(noisy, list(reversed(noisy)), **lower) == "unresolved"
    assert compare.judge(steady, steady, "lower", 0.10, True, True) == "agree"
    assert compare.judge(steady, [v * 1.3 for v in steady], "lower", 0.10, True, True) == "second set worse"
    assert compare.judge(noisy, noisy, "lower", 0.10, True, True) == "spread > bound"
    # A pair with an unstable run counts for no side of "improved".
    faster = [v * 0.8 for v in steady]
    assert compare.judge(steady, faster, **lower, stable=[True] * 9 + [False]) == "no worse"


def test_compare_exits_nonzero_on_failures_and_missing_workloads(tmp_path, capsys):
    manifest = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in manifest["end_to_end"]}

    def write(name: str, failed: int, skip: str = "") -> str:
        runs = [{"workload": w["name"], "metrics": values, "attempted": 100, "failed": failed}
                for w in manifest["workloads"] if w["name"] != skip for _ in range(3)]
        (tmp_path / name).write_text(json.dumps({"runs": runs}))
        return str(tmp_path / name)

    good, wrong, partial = write("good.json", 0), write("wrong.json", 1), write("partial.json", 0, "cold-start")
    assert compare.main(["--parent", good, "--change", good]) == 0
    assert compare.main(["--parent", good, "--change", wrong]) == 1
    assert compare.main(["--parent", wrong, "--change", good]) == 0
    assert compare.main(["--parent", good, "--change", partial]) == 1
    assert "missing" in capsys.readouterr().out


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q", *sys.argv[1:]]))
