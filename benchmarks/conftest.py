"""Shared fixtures and reporting helpers for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper's
evaluation: it builds the corresponding workloads, evaluates the SparseTIR
kernels and every baseline on the *simulated V100* / RTX 3070 of ``repro.sim``
(no fig / table module runs or times a kernel), prints the same
rows/series the paper reports (normalised speedups, hit rates, memory
footprints) and records the end-to-end harness time with pytest-benchmark.
"""

import sys
from pathlib import Path
from typing import Dict, Sequence

import pytest

# Allow `import bench_helpers` regardless of how pytest was invoked.
sys.path.insert(0, str(Path(__file__).parent))

from repro.sim.device import RTX3070, V100


def pytest_configure(config):
    config.addinivalue_line("markers", "figure(name): benchmark reproducing one paper figure")


def pytest_collection_modifyitems(items):
    """Every test in this directory is a paper-benchmark harness.

    The ``bench`` marker lets CI run a fast default lane
    (``-m "not slow and not bench"``) and a full nightly lane.
    """
    for item in items:
        if "benchmarks" in str(item.fspath):
            item.add_marker(pytest.mark.bench)


@pytest.fixture(params=["V100", "RTX3070"], scope="session")
def device(request):
    """Both GPUs of the paper's evaluation."""
    return V100 if request.param == "V100" else RTX3070


@pytest.fixture(scope="session")
def devices():
    return [V100, RTX3070]


def print_speedup_table(
    title: str,
    rows: Sequence[str],
    columns: Sequence[str],
    values: Dict[str, Dict[str, float]],
    note: str = "",
) -> None:
    """Print a paper-style normalised-speedup table (rows = datasets)."""
    width = max(14, max(len(c) for c in columns) + 2)
    header = f"{'dataset':<16}" + "".join(f"{c:>{width}}" for c in columns)
    print(f"\n=== {title} ===")
    if note:
        print(note)
    print(header)
    for row in rows:
        line = f"{row:<16}"
        for column in columns:
            value = values.get(row, {}).get(column)
            line += f"{value:>{width}.2f}" if value is not None else f"{'-':>{width}}"
        print(line)
