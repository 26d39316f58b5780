"""Serving throughput harness: coalesced batching vs sequential eager.

This harness measures the *serving tentpole*: the claim that answering a
burst of same-structure requests through the coalescing
:class:`~repro.serve.Server` (one ``batched_spmm`` launch per group) beats
answering them one-by-one through eager :meth:`Session.spmm` calls.  The
claim is process-level: one Python process, the batch axis is the
multi-head axis of the generated kernel, and the win comes from
amortising per-request dispatch over one vectorized multi-lane launch —
no GPU parallelism is simulated or implied.

Methodology: each workload issues *waves* of N requests over a fig-13
graph.  Served and eager waves run in interleaved paired rounds (warm
both, then alternate) so allocator/cache drift biases neither side, and
both modes report *wave-offered* latency — request ``i``'s latency is
``done_i - wave_start`` in both modes, i.e. latency as offered load sees
it, which charges the eager mode for the queueing delay its serialism
causes.  Per round: throughput = N / (last completion - wave start);
p99 = 99th percentile of the wave's offered latencies.  Reported numbers
are medians over rounds; the headline ratio is
``median(served rps) / median(eager rps)``; every wave's served results
are asserted bit-exact against eager on the same inputs.

Batching is not free at every size: past roughly 1.5M total lanes the
coalesced working set falls out of cache and batching loses to eager —
the server's lane budget chunks groups to stay inside the winning regime,
and the configurations below exercise exactly the burst shapes serving
coalesces in practice (small-to-medium graphs, narrow features).

``test_serving_smoke`` runs one scaled-down workload for the CI
``serve-smoke`` lane (writes ``BENCH_serving.smoke.json``);
``test_serving_full`` records both absolute rates and refreshes the
committed ``BENCH_serving.json`` only under ``pytest --write-bench``.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.runtime.session import Session
from repro.serve import Server, ServerConfig
from repro.workloads.graphs import synthetic_graph

_ROOT = Path(__file__).resolve().parent.parent
#: The committed perf-trajectory file; only the full-mode run writes it.
OUTPUT = _ROOT / "BENCH_serving.json"
#: Smoke runs write a sibling (gitignored) file so a local smoke run never
#: clobbers the committed full-mode numbers; CI renames it before upload.
SMOKE_OUTPUT = _ROOT / "BENCH_serving.smoke.json"

SMOKE_CONFIG = {
    # graph, feat, requests per wave, max_batch
    "workloads": [("cora", 4, 16, 16)],
    "rounds": 3,
}

FULL_CONFIG = {
    # Burst shapes in the coalescing win regime (see module docstring):
    # small/medium fig-13 graphs, narrow features, 32-request waves.  The
    # per-workload max_batch keeps each launch inside its graph's lane
    # budget (pubmed's nnz is ~8x cora's, so its groups stay smaller).
    "workloads": [
        ("cora", 4, 32, 16),
        ("cora", 8, 32, 8),
        ("citeseer", 4, 32, 16),
        ("citeseer", 8, 32, 8),
        ("pubmed", 4, 16, 8),
    ],
    "rounds": 7,
}


def _eager_wave(session, csr, feats):
    """One sequential wave; returns (outputs, wave seconds, offered latencies)."""
    wave_start = time.perf_counter()
    outs, latencies = [], []
    for x in feats:
        outs.append(session.spmm(csr, x, dtype="float32"))
        latencies.append(time.perf_counter() - wave_start)
    return outs, latencies[-1], latencies


def _served_wave(server, csr, feats):
    """One concurrent wave through the server (all requests offered at once)."""
    done = [None] * len(feats)
    futures = []
    wave_start = time.perf_counter()
    for i, x in enumerate(feats):
        future = server.spmm(csr, x)
        future.add_done_callback(
            lambda _f, i=i: done.__setitem__(i, time.perf_counter())
        )
        futures.append(future)
    outs = [future.result(timeout=300) for future in futures]
    # done callbacks fire on the batcher thread right after resolution; wait
    # out the tiny race between result() returning and the stamp landing.
    deadline = time.monotonic() + 10.0
    while any(stamp is None for stamp in done) and time.monotonic() < deadline:
        time.sleep(0.0005)
    latencies = [stamp - wave_start for stamp in done]
    return outs, max(latencies), latencies


def _bench_workload(graph_name, feat, requests, max_batch, rounds):
    csr = synthetic_graph(graph_name).csr
    rng = np.random.default_rng(42)
    feats = [rng.standard_normal((csr.cols, feat)).astype(np.float32) for _ in range(requests)]
    eager_session = Session(persistent=False)
    server = Server(
        session=Session(persistent=False),
        config=ServerConfig(linger_s=0.001, max_batch=max_batch),
    )
    try:
        # Warm both modes: compile kernels, fault in buffers.
        served_outs, _, _ = _served_wave(server, csr, feats)
        eager_outs, _, _ = _eager_wave(eager_session, csr, feats)
        exact = all(
            np.array_equal(s, e) for s, e in zip(served_outs, eager_outs)
        )
        served_s, eager_s, served_p99, eager_p99 = [], [], [], []
        for _ in range(rounds):
            outs, wave_s, lats = _served_wave(server, csr, feats)
            served_s.append(wave_s)
            served_p99.append(float(np.percentile(lats, 99)))
            exact = exact and all(
                np.array_equal(s, e) for s, e in zip(outs, eager_outs)
            )
            _, wave_s, lats = _eager_wave(eager_session, csr, feats)
            eager_s.append(wave_s)
            eager_p99.append(float(np.percentile(lats, 99)))
        snap = server.snapshot()["default"]
    finally:
        server.close()
    served_rps = requests / float(np.median(served_s))
    eager_rps = requests / float(np.median(eager_s))
    return {
        "workload": f"{graph_name}-f{feat}-n{requests}",
        "graph": graph_name,
        "nnz": int(csr.nnz),
        "feat": feat,
        "requests": requests,
        "served_rps": served_rps,
        "eager_rps": eager_rps,
        "speedup_rps": served_rps / eager_rps,
        "served_p99_ms": float(np.median(served_p99)) * 1e3,
        "eager_p99_ms": float(np.median(eager_p99)) * 1e3,
        "p99_ratio": float(np.median(eager_p99)) / float(np.median(served_p99)),
        "mean_occupancy": snap["mean_occupancy"],
        "bit_exact": bool(exact),
    }


def _run_suite(mode, config, output):
    results = []
    for graph_name, feat, requests, max_batch in config["workloads"]:
        entry = _bench_workload(graph_name, feat, requests, max_batch, config["rounds"])
        results.append(entry)
        print(
            f"{entry['workload']:20s} served {entry['served_rps']:8.0f} req/s  "
            f"x{entry['speedup_rps']:.2f} vs eager   p99 {entry['served_p99_ms']:7.2f} ms "
            f"(eager {entry['eager_p99_ms']:7.2f})   occ {entry['mean_occupancy']:.1f}  "
            f"exact={entry['bit_exact']}"
        )
        assert entry["bit_exact"], entry["workload"]
        assert entry["mean_occupancy"] and entry["mean_occupancy"] > 1.0
    speedups = [r["speedup_rps"] for r in results]
    payload = {
        "schema": 1,
        "harness": "benchmarks/test_serving.py",
        "mode": mode,
        "numpy": np.__version__,
        "methodology": (
            "interleaved paired waves; wave-offered latency (done_i - wave_start) "
            "in both modes; ratio = median(served rps)/median(eager rps); "
            "process-level batching only"
        ),
        "results": results,
        "summary": {
            "geomean_served_speedup": float(np.exp(np.mean(np.log(speedups)))),
            "min_served_speedup": float(min(speedups)),
            "max_served_speedup": float(max(speedups)),
        },
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {output} (geomean served speedup: "
          f"x{payload['summary']['geomean_served_speedup']:.2f})")
    return payload


@pytest.mark.figure("serving")
def test_serving_smoke():
    """One scaled-down wave for the CI ``serve-smoke`` job (artifact upload).

    Smoke asserts the serving contract (bit-exact, coalescing actually
    happened) but not the speedup gate: at toy sizes the ratio is
    noise-dominated.
    """
    payload = _run_suite("smoke", SMOKE_CONFIG, SMOKE_OUTPUT)
    assert SMOKE_OUTPUT.exists()
    for row in payload["results"]:
        assert row["served_rps"] > 0 and row["eager_rps"] > 0


@pytest.mark.slow
@pytest.mark.bench  # also auto-applied by benchmarks/conftest.py; explicit here
@pytest.mark.figure("serving")
def test_serving_full(bench_output):
    """Fig-13-graph burst workloads; the committed ``BENCH_serving.json``
    comes from this run under ``pytest --write-bench``.  ``_run_suite``
    asserts bit-exactness and that coalescing happened; both absolute
    rates are recorded.  The served-vs-eager ratio is not gated here — its
    denominator is the eager path, which bound-kernel handles made faster —
    the gated number is ``serve-burst`` ``ref_ratio`` in ``bench/``."""
    _run_suite("full", FULL_CONFIG, bench_output(OUTPUT))
