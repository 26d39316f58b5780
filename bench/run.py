#!/usr/bin/env python3
"""One benchmark for the whole stack.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                      # every workload, one after another

Runs one named workload through the stable public surface only, checks every
output against an independent SciPy/NumPy reference, and prints every metric
by name with its unit.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics (measured untraced), with ``--trace 1`` the per-layer
metrics of a separate traced pass.  See ``bench/README.md``.

The run is hermetic: the kernel cache, tuning records and temporary files
live in a per-run directory under ``--out`` (default ``bench/out``) that is
removed on exit; BLAS/OpenMP are pinned to one thread and NumPy's huge-page
advice is switched off before NumPy loads; nothing outside ``--out`` is written.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

#: workload -> the module that runs it.  Why each exists is in BENCHMARK.json.
MODULES = {
    "eager-small": "wl_eager",
    "eager-large": "wl_eager",
    "graph-models": "wl_graph",
    "serve-burst": "wl_serve",
    "serve-trickle": "wl_serve",
    "dynamic-mix": "wl_dynamic",
    "cold-start": "wl_cold",
}

#: Fresh-process set-ups per untraced run (this process is one of them).
SETUP_REPETITIONS = 3

#: Set before NumPy is imported, in this process and in every child.  The
#: reference is a plain single-threaded run, so BLAS/OpenMP get one thread.
#: NumPy otherwise asks for 2 MiB huge pages behind every large temporary, and
#: on this class of VM the price of those faults (compaction, host backing)
#: swung the system time of one identical set-up between 0.3 and 3.0 s; with
#: 4 KiB pages it stays within 0.38-0.49 s.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMPY_MADVISE_HUGEPAGE": "0",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *MODULES])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed window (default: run_seconds of BENCHMARK.json, "
                             "with --smoke 1.5)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=[0, 1])
    parser.add_argument("--smoke", action="store_true",
                        help="1.5 s windows and a single set-up: for the self-test, not for numbers")
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "out")
    parser.add_argument("--child", choices=["setup", "unit", "ref"], help=argparse.SUPPRESS)
    parser.add_argument("--fault", choices=["wrong-reference", "missing-layer", "failing-child"],
                        help=argparse.SUPPRESS)  # injected by the self-test
    args = parser.parse_args(argv)
    if args.seconds is None:
        from harness import MANIFEST

        args.seconds = 1.5 if args.smoke else float(MANIFEST["run_seconds"])
    return args


def hermetic_env(run_dir: Path) -> dict:
    """Environment that keeps every side effect inside *run_dir*."""
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "REPRO_KERNEL_CACHE": str(run_dir / "kernels"),
        "REPRO_TUNING_RECORDS": str(run_dir / "tuning"),
        "TMPDIR": str(tmp),
        **PINNED_ENV,
    })
    return env


def do_setup(args: argparse.Namespace, run_dir: Path, tracer=None):
    """Imports + the workload's set-up, timed from before the first heavy import."""
    begin = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.sparse  # noqa: F401
    import repro.runtime.session  # noqa: F401
    import repro.serve  # noqa: F401
    import repro.graph  # noqa: F401
    import_s = time.perf_counter() - begin

    import importlib

    from harness import Context

    module = importlib.import_module(MODULES[args.workload])
    if tracer is not None:
        tracer.install()
    ctx = Context(args.workload, args.seed, args.seconds, tracer=tracer, run_dir=run_dir)
    ctx.fault = args.fault
    state = module.setup(ctx)
    setup_s = time.perf_counter() - begin
    return module, ctx, state, setup_s, import_s


# ---------------------------------------------------------------------------
# child modes
# ---------------------------------------------------------------------------

def child_main(args: argparse.Namespace) -> int:
    from harness import artifact_stats, peak_rss_mb

    run_dir = Path(os.environ["REPRO_KERNEL_CACHE"]).parent
    if args.child == "setup":
        module, ctx, state, setup_s, import_s = do_setup(args, run_dir)
        _teardown(module, state)
        print(json.dumps({
            "setup_s": setup_s, "import_s": import_s, "rss_mb": peak_rss_mb(),
            "attempted": ctx.attempted, "failed": ctx.failed, "failures": ctx.failures,
            **artifact_stats(run_dir / "kernels"),
        }))
        return 0
    import wl_cold

    if args.child == "ref":
        print(json.dumps(wl_cold.reference_child(run_dir)))
    else:
        print(json.dumps(wl_cold.unit_child(args.seed, bool(args.trace))))
    return 0


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def run_workload(args: argparse.Namespace) -> dict:
    from harness import artifact_stats, run_child

    args.out.mkdir(parents=True, exist_ok=True)
    run_dir = args.out / f"run-{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        os.environ.update(hermetic_env(run_dir))
        if args.trace:
            result = _traced(args, run_dir)
        else:
            # The other set-ups: fresh processes, each with its own empty
            # kernel cache, one after another (side by side they slow each
            # other down by half on a two-thread machine).
            repetitions = 1 if args.smoke else SETUP_REPETITIONS
            setups = [
                run_child(
                    ["--child", "setup", "--workload", args.workload, "--seed", str(args.seed)],
                    hermetic_env(run_dir / f"setup-{index}"),
                )
                for index in range(repetitions - 1)
            ]
            result = _untraced(args, run_dir, setups)
        result["artifacts"] = artifact_stats(run_dir / "kernels")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return result


def _untraced(args, run_dir: Path, setups: list) -> dict:
    from harness import artifact_stats, calibrate, peak_rss_mb

    module, ctx, state, setup_s, import_s = do_setup(args, run_dir)
    import metrics

    after_setup = artifact_stats(run_dir / "kernels")
    samples = [child["setup_s"] for child in setups] + [setup_s]
    for child in setups:
        ctx.attempted += child["attempted"]
        ctx.failed += child["failed"]
        ctx.failures.extend(child["failures"])
    calib_start = calibrate()
    module.measure(ctx, state)
    calib_end = calibrate()
    if hasattr(module, "verify"):
        module.verify(ctx, state)
    _teardown(module, state)
    rss = max([peak_rss_mb()] + [child["rss_mb"] for child in setups])
    table = metrics.end_to_end(ctx, statistics.median(samples), after_setup["artifact_kb"], rss)
    return _record(args, ctx, table, {
        "setup_samples_s": samples, "import_s": import_s,
        "calib_start_ms": calib_start, "calib_end_ms": calib_end,
    })


def _traced(args, run_dir: Path) -> dict:
    from harness import artifact_stats, calibrate, geomean, session_counters
    from tracing import Tracer

    tracer = Tracer()
    if args.fault == "missing-layer":
        import layers

        layers.SPANS += (("ops.prepare", "ops.registry", "repro.ops.registry:no_such_function"),)
    module, ctx, state, setup_s, import_s = do_setup(args, run_dir, tracer)
    import metrics

    facts = dict(artifact_stats(run_dir / "kernels"))
    facts.update(import_ms=import_s * 1e3, setup_ms=setup_s * 1e3,
                 stage3_script_lines=tracer.script_lines())
    # Untraced first (wrappers removed), then traced: the difference is the
    # tracing overhead.  The window is split so both fit in --seconds.
    tracer.uninstall()
    ctx.tracer = None
    facts["calib_start_ms"] = calibrate()
    window = ctx.seconds
    ctx.seconds = window * 0.4
    module.measure(ctx, state)
    rows = ctx.case_rows()
    facts.update({f"untraced_{key}": geomean([r[column] for r in rows]) for key, column in (
        ("latency_ms", "median_ms"), ("mean_ms", "mean_ms"), ("tail_ms", "tail_ms"),
        ("ref_ms", "ref_median_ms"))})
    facts["untraced_samples"] = sum(r["n"] for r in rows)
    ctx.reset_samples()

    tracer.install()
    ctx.tracer = tracer
    ctx.seconds = window * 0.6
    before = session_counters(state["session"])
    module.measure(ctx, state)
    after = session_counters(state["session"])
    tracer.uninstall()
    ctx.tracer = None
    facts["calib_end_ms"] = calibrate()
    facts.update(ctx.probe_units(module.steps(state)))
    if hasattr(module, "verify"):
        module.verify(ctx, state)
    _teardown(module, state)

    self_s, calls = tracer.self_times(), tracer.counts()
    counters = metrics.counter_delta(before, after)
    for key, value in ctx.child_spans.items():
        phase, _, name = key.partition("|")
        self_s[(phase, name)] += value
    counters.update(ctx.child_counters)
    facts.update(ctx.child_facts)
    table = metrics.per_layer(ctx, self_s, calls, counters, facts)
    trace_path = args.out / f"{args.workload}-trace.json"
    trace_path.write_text(json.dumps(tracer.as_json()))
    return _record(args, ctx, table, {"trace_file": str(trace_path), "missing": tracer.missing})


def _teardown(module, state) -> None:
    """Stop what the workload started (the server's batcher thread)."""
    if hasattr(module, "teardown"):
        module.teardown(state)


def _record(args, ctx, table: dict, more: dict) -> dict:
    from harness import machine_fingerprint

    calib = [more.get("calib_start_ms"), more.get("calib_end_ms")]
    unstable = bool(calib[0] and calib[1] and abs(calib[1] / calib[0] - 1.0) > 0.10)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "correct": ctx.failed == 0, "attempted": ctx.attempted, "failed": ctx.failed,
        "failures": ctx.failures, "unstable": unstable,
        "metrics": table, "cases": ctx.case_rows(), "extra": ctx.extra,
        "machine": machine_fingerprint(), "claim": None, **more,
    }


def print_tables(record: dict) -> None:
    print(f"== {record['workload']}  seed={record['seed']}  seconds={record['seconds']}  "
          f"trace={record['trace']}" + ("  UNSTABLE (machine speed drifted > 0.10)"
                                        if record["unstable"] else ""))
    for row in record["cases"]:
        print(f"  {row['case']:34s} n={row['n']:<6d} median {row['median_ms']:9.3f} ms  "
              f"p{row['tail_pct']} {row['tail_ms']:9.3f} ms  ref {row['ref_median_ms']:8.3f} ms  "
              f"ours/ref {row['ref_ratio']:7.2f}")
    for name, metric in record["metrics"].items():
        print(f"  {name:32s} {metric['value']:16.4f} {metric['unit']}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")


def summary_line(record: dict) -> str:
    return json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")})


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC_DIR / "repro").is_dir():
        print(f"bench: no system under test at {SRC_DIR}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    if args.child:
        return child_main(args)

    if args.workload != "all":
        record = run_workload(args)
        suffix = f"seed{args.seed}-trace{args.trace}"
        (args.out / f"{args.workload}-{suffix}.json").write_text(json.dumps(record, indent=1))
        print_tables(record)
        print(summary_line(record))
        return 0

    # Every workload, each in its own process so peak memory is its own.
    from harness import run_child

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}, "claim": None}
    for workload in MODULES:
        forwarded = ["--workload", workload, "--seed", str(args.seed), "--seconds",
                     str(args.seconds), "--trace", str(args.trace), "--out", str(args.out)]
        if args.smoke:
            forwarded.append("--smoke")
        summary = run_child(forwarded, dict(os.environ), timeout=900)
        print_tables(json.loads(
            (args.out / f"{workload}-seed{args.seed}-trace{args.trace}.json").read_text()))
        combined["correct"] = combined["correct"] and summary["correct"]
        combined["attempted"] += summary["attempted"]
        combined["failed"] += summary["failed"]
        combined["metrics"][workload] = summary["metrics"]
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    os.environ.update(PINNED_ENV)
    sys.exit(main())
