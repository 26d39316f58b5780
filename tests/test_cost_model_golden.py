"""Golden predicted-cost regression tests for the GPU cost model.

The autoscheduler's phase-1 pruning stands on ``perf.gpu_model`` producing
stable candidate *rankings*: a silent model change that reorders candidates
would redirect every tuned workload without failing a single functional
test.  These tests pin the predicted costs of the fig-13 (SpMM), fig-14
(SDDMM) and fig-16 (batched attention) candidate sets on the V100 model to
golden JSON files under ``tests/goldens/``.

* Rankings must match the goldens **exactly** — a reorder is always a
  failure.
* Durations must match to a tight relative tolerance (allowing only for
  floating-point noise across platforms).

Intentional model changes are committed by regenerating with
``pytest --regen-golden`` and reviewing the diff, exactly like the emitted
kernel source goldens.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.formats.csr import CSRMatrix
from repro.runtime import Session
from repro.sim import V100, estimate_us
from repro.tune import get_workload
from repro.tune.search_space import config_key
from repro.tune.spaces import (
    AttentionProblem,
    InfeasibleConfig,
    SDDMMProblem,
    SpMMProblem,
)
from repro.workloads.graphs import generate_adjacency

GOLDEN_DIR = Path(__file__).parent / "goldens"

#: Relative tolerance on golden durations: generous enough for cross-platform
#: float noise, far below any real model change.
DURATION_RTOL = 1e-9


def _attention_mask(size=64, block=16, seed=0):
    dense = np.zeros((size, size), dtype=np.float32)
    for b in range(0, size, block):
        dense[b : b + block, b : b + block] = 1.0
    dense[0:block, size - block :] = 1.0
    return CSRMatrix.from_dense(dense)


def _problem(figure):
    graph = generate_adjacency(400, 3600, "powerlaw", seed=23)
    if figure == "fig13_spmm":
        return "spmm", SpMMProblem(graph, 32)
    if figure == "fig14_sddmm":
        return "sddmm", SDDMMProblem(graph, 32)
    if figure == "fig16_attention":
        return "attention", AttentionProblem(_attention_mask(), 4, 16)
    raise KeyError(figure)  # pragma: no cover


def _predicted_costs(figure):
    """Cost-model durations for every canonical candidate of one figure."""
    workload, problem = _problem(figure)
    spec = get_workload(workload)
    session, memo = Session(), {}
    rows = []
    seen = set()
    for config in spec.space(problem).configurations():
        canonical = spec.canonical(config)
        key = config_key(canonical)
        if key in seen:
            continue
        seen.add(key)
        label = json.dumps(canonical, sort_keys=True)
        try:
            duration = estimate_us(spec.predict(problem, canonical, V100, session, memo), V100)
        except InfeasibleConfig:
            continue
        rows.append({"config": label, "duration_us": duration})
    rows.sort(key=lambda row: row["config"])
    ranking = [
        row["config"]
        for row in sorted(rows, key=lambda row: (row["duration_us"], row["config"]))
    ]
    return {"workload": workload, "device": V100.name, "costs": rows, "ranking": ranking}


FIGURES = ["fig13_spmm", "fig14_sddmm", "fig16_attention"]


class TestCostModelGoldens:
    @pytest.mark.parametrize("figure", FIGURES)
    def test_predicted_costs_match_golden(self, figure, request):
        produced = _predicted_costs(figure)
        path = GOLDEN_DIR / f"cost_model_{figure}.json"
        if request.config.getoption("--regen-golden"):
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(json.dumps(produced, indent=2) + "\n")
            pytest.skip(f"regenerated {path.name}")
        assert path.exists(), (
            f"golden file {path} is missing; run `pytest --regen-golden` to create it"
        )
        golden = json.loads(path.read_text())

        assert produced["ranking"] == golden["ranking"], (
            "cost-model candidate ranking reordered — this redirects autotuning.\n"
            "If intentional, regenerate with `pytest --regen-golden` and commit."
        )
        produced_by_config = {row["config"]: row["duration_us"] for row in produced["costs"]}
        golden_by_config = {row["config"]: row["duration_us"] for row in golden["costs"]}
        assert set(produced_by_config) == set(golden_by_config)
        for config, duration in golden_by_config.items():
            assert produced_by_config[config] == pytest.approx(
                duration, rel=DURATION_RTOL
            ), config

    @pytest.mark.parametrize("figure", FIGURES)
    def test_golden_generation_is_deterministic(self, figure):
        assert _predicted_costs(figure) == _predicted_costs(figure)

    def test_goldens_have_nontrivial_candidate_sets(self):
        for figure in FIGURES:
            path = GOLDEN_DIR / f"cost_model_{figure}.json"
            if not path.exists():
                pytest.skip("goldens not generated yet")
            golden = json.loads(path.read_text())
            assert len(golden["costs"]) >= 3
            durations = [row["duration_us"] for row in golden["costs"]]
            assert len(set(durations)) > 1, "all candidates priced identically"
