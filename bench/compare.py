#!/usr/bin/env python3
"""Compare two sets of benchmark runs: parent against change.

    python3 bench/compare.py --parent P1.json P2.json ... --change C1.json C2.json ...
    python3 bench/compare.py --self --parent bench/baseline/set-a.json --change bench/baseline/set-b.json

Each argument is a run record written by ``run.py`` (``--out``), a packed
set ``{"runs": [records]}`` as in ``bench/baseline/``, or a directory of
either.  Runs are paired per workload in the order given, which should be
the alternating order they were run in (parent, change, change, parent,
...).  One row is printed per (end-to-end metric, workload):

* ``improved``   — the change wins at least 9/10 of at least 10 pairs (ties
  count for neither side; a pair with a run marked ``unstable`` is left out)
  *and* the medians differ by more than the parent's own inter-quartile
  distance;
* ``no worse``   — the change's median is within the metric's bound of the
  parent's;
* ``unresolved`` — the run-to-run spread of either side exceeds the bound,
  so the data cannot tell (unless every run of the change beats every run
  of the parent); this is not "unchanged";
* ``regressed``  — otherwise.  Exit status 1.

Before the metrics, each workload gets a ``failed`` row: failed operations
over operations attempted on each side.  Its bound is 0: more failures on
the change's side is ``regressed`` whatever the times say (wrong answers
given faster are not an improvement).  A workload of ``BENCHMARK.json``
with no run on either side is ``missing`` and also exits 1.  The number of
runs whose machine speed drifted (``unstable``) is printed per side.

``--self`` applies the same bounds to two sets taken from one commit: every
spread (except ``setup_s``, whose spread is not limited) must stay within
its bound and the second median must not be worse than the first by more
than the bound.  This is the check the benchmark itself has to pass.
Bounds and directions come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence

BENCH_DIR = Path(__file__).resolve().parent


def load_runs(arguments: Sequence[str]) -> Dict[str, List[dict]]:
    """workload -> run records, in the order given (directories sorted)."""
    runs: Dict[str, List[dict]] = defaultdict(list)
    for argument in arguments:
        path = Path(argument)
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        for file in files:
            loaded = json.loads(file.read_text())
            for record in loaded.get("runs", [loaded]):   # a packed set, or one record
                if "workload" in record and "metrics" in record and not record.get("trace"):
                    runs[record["workload"]].append(record)
    return runs


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def worsening(parent: float, change: float, better: str) -> float:
    """How much worse the change is, as a share of the parent (negative: better)."""
    if not parent:
        return 0.0
    delta = (change - parent) / parent
    return delta if better == "lower" else -delta


def failed_fraction(runs: List[dict]) -> float:
    return sum(r["failed"] for r in runs) / max(sum(r["attempted"] for r in runs), 1)


def judge(parent: List[float], change: List[float], better: str, bound: float, self_check: bool,
          limit_spread: bool, stable: Sequence[bool] = ()) -> str:
    """``stable[i]`` is false when either run of pair *i* was marked unstable;
    such pairs count for no side in ``improved``."""
    p_med, c_med = statistics.median(parent), statistics.median(change)
    worse = worsening(p_med, c_med, better)
    wide = limit_spread and max(spread(parent), spread(change)) > bound
    if self_check:
        if wide:
            return "spread > bound"
        return "agree" if worse <= bound else "second set worse"
    sign = 1 if better == "lower" else -1
    pairs = list(zip(parent, change))
    steady = [pair for i, pair in enumerate(pairs) if i >= len(stable) or stable[i]]
    steady_wins = sum(1 for p, c in steady if sign * (c - p) < 0)
    q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) >= 2 else (p_med, p_med, p_med)
    if (len(steady) >= 10 and steady_wins >= 0.9 * len(steady) and abs(c_med - p_med) > (q3 - q1)
            and worse < 0):
        return "improved"
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) > 0)
    dominated = all(sign * (c - p) < 0 for c in change for p in parent)
    if wide and not dominated:
        return "unresolved"
    if worse <= bound:
        return "no worse"
    return "regressed" if losses >= wins else "unresolved"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--self", dest="self_check", action="store_true")
    args = parser.parse_args(argv)

    manifest = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    parent, change = load_runs(args.parent), load_runs(args.change)
    bad = ("regressed", "spread > bound", "second set worse", "missing")
    verdicts: List[str] = []
    print(f"{'workload':15s} {'metric':12s} {'parent':>11s} {'change':>11s} {'worse by':>9s} "
          f"{'spread p/c':>13s} {'bound':>6s}  verdict (n pairs; unstable runs p/c)")
    for workload in (w["name"] for w in manifest["workloads"]):
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        if not p_runs or not c_runs:
            verdicts.append("missing")
            print(f"{workload:15s} no run in {'parent' if not p_runs else 'change'}  missing")
            continue
        p_failed, c_failed = failed_fraction(p_runs), failed_fraction(c_runs)
        verdicts.append("regressed" if c_failed > p_failed else "no worse")
        print(f"{workload:15s} {'failed':12s} {p_failed:11.6f} {c_failed:11.6f} {'':9s} {'':13s} "
              f"{0:6.2f}  {verdicts[-1]}")
        stable = [not (p.get("unstable") or c.get("unstable")) for p, c in zip(p_runs, c_runs)]
        unstable = (sum(bool(r.get("unstable")) for r in p_runs),
                    sum(bool(r.get("unstable")) for r in c_runs))
        for metric in manifest["end_to_end"]:
            name = metric["name"]
            p = [r["metrics"][name]["value"] for r in p_runs]
            c = [r["metrics"][name]["value"] for r in c_runs]
            verdict = judge(p, c, metric["better"], metric["bound"], args.self_check,
                            limit_spread=name != "setup_s", stable=stable)
            verdicts.append(verdict)
            p_med, c_med = statistics.median(p), statistics.median(c)
            print(f"{workload:15s} {name:12s} {p_med:11.4f} {c_med:11.4f} "
                  f"{worsening(p_med, c_med, metric['better']):+9.3f} "
                  f"{spread(p):6.3f}/{spread(c):6.3f} {metric['bound']:6.2f}  "
                  f"{verdict} ({min(len(p), len(c))}; {unstable[0]}/{unstable[1]})")
    return 1 if any(v in bad for v in verdicts) else 0


if __name__ == "__main__":
    sys.exit(main())
