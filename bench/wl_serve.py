"""``serve-burst`` and ``serve-trickle``: the coalescing path and its bypass.

Open loop: one generator thread (this one) sends on a fixed schedule
whatever the server does, and the server's one batcher thread answers
(= both hardware threads of the box).  Every request is timed from when it
was *due*, so a stall charges the requests queued behind it; how late the
generator itself ran is reported as ``serve.gen_lag_ms``.

* ``serve-burst`` — every 30 ms one burst of 8-16 same-structure requests
  over one of four (graph, width, burst size) combinations.  Exercises
  content-hash fingerprinting, coalescing and one batched launch per burst.
  The unit is the burst: due time to its last response.
* ``serve-trickle`` — single requests evenly spaced at 100/s over the same
  four matrices.  Nothing ever coalesces; latency is linger + one eager
  call.  A change to batching must leave this workload unmoved, and a longer
  linger that raises burst occupancy adds directly to it.

The reference is a server that waits a fixed ``REFERENCE_WAIT_S`` and then
makes the SciPy calls.  The wait is the benchmark's own constant, so nothing
the server under test is configured with reaches the reference side.

Offered load is about a fifth of measured capacity, so no backlog grows.
Each response is compared with the SciPy product (tolerance) and must be
bit-exact with the eager ``Session.spmm`` result for the same input.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, Dict, List

import numpy as np

import inputs
import refs
from harness import Context, percentile

#: (graph, feature width, requests per burst).  Fixed, so every seed offers
#: the same amount of work; the seed picks the content and the order.
COMBOS = (("cora", 4, 16), ("citeseer", 4, 12), ("cora", 8, 8), ("citeseer", 8, 8))
POOL = 32                      # distinct feature matrices per combination
PERIOD_S = {"serve-burst": 0.030, "serve-trickle": 0.010}
HORIZON_S = 120.0              # schedule length; longer than any window
#: The reference server's batching window.  A constant of the benchmark, never
#: read from the server under test: a longer linger there adds to ours alone
#: and shows in full.  (2 ms was the server's default when this was written.)
REFERENCE_WAIT_S = 0.002


def schedule(seed: int, workload: str) -> Dict[str, np.ndarray]:
    """The arrival schedule: due offsets, which combination, which inputs."""
    count = int(HORIZON_S / PERIOD_S[workload])
    gen = inputs.rng(seed, f"{workload}/schedule")
    return {
        "due_s": np.arange(count, dtype=np.float64) * PERIOD_S[workload],
        "combo": gen.integers(0, len(COMBOS), size=count),
        "first_input": gen.integers(0, POOL, size=count),
    }


def setup(ctx: Context) -> Any:
    from repro.runtime.session import Session
    from repro.serve import Server

    session = Session()
    server = Server(session=session)
    burst = ctx.workload == "serve-burst"
    combos = []
    for graph, width, size in COMBOS:
        name = f"{'burst' if burst else 'single'}-{graph}-k{width}" + (f"-n{size}" if burst else "")
        csr = inputs.graph(graph, ctx.seed)
        gen = inputs.rng(ctx.seed, f"serve/{graph}/k{width}")
        pool = [gen.standard_normal((csr.cols, width)).astype(np.float32) for _ in range(POOL)]
        # The eager answer to every input: what each response must equal bit
        # for bit.  The first call compiles the single-request kernel.
        eager = [session.spmm(csr, x, dtype="float32") for x in pool]
        if burst:
            # Every batch size a burst can split into is its own structural
            # fingerprint; unwarmed, lowering would run in-band on the single
            # batcher thread and one run's median would be 20x the next's.
            for batch in range(2, size + 1):
                session.batched_spmm(csr, np.stack(pool[:batch]), dtype="float32")
        combo = {
            "name": name, "csr": csr, "a": refs.to_scipy(csr, np.float32), "pool": pool,
            "eager": eager, "size": size if burst else 1,
        }
        ctx.case_info[name] = {
            "macs": csr.nnz * width * combo["size"],
            "inputs": inputs.digest(csr.indptr, csr.indices, csr.data, *pool),
        }
        combos.append(combo)
    plan = schedule(ctx.seed, ctx.workload)
    state = {"ctx": ctx, "session": session, "server": server, "combos": combos, "plan": plan,
             "next": 0, "bare_s": []}
    for _ in range(3):   # warm the server path itself
        for combo in combos:
            _unit(ctx, state, combo, 0)
    return state


def _scheduled(state: Any) -> tuple:
    """The next (combination, first input) of the arrival schedule."""
    plan = state["plan"]
    index = state["next"] % len(plan["combo"])
    state["next"] += 1
    return state["combos"][int(plan["combo"][index])], int(plan["first_input"][index])


def _unit(ctx: Context, state: Any, combo: Dict[str, Any], first: int, due: float = None) -> None:
    """Send one burst (or single request), wait, check every response."""
    server = state["server"]
    picks = [(first + i) % POOL for i in range(combo["size"])]
    xs = [combo["pool"][i] for i in picks]
    csr, a = combo["csr"], combo["a"]

    def send() -> List[np.ndarray]:
        futures = [server.spmm(csr, x, dtype="float32") for x in xs]
        return [future.result(timeout=60) for future in futures]

    def reference() -> List[np.ndarray]:
        # A reference server: a fixed batching window, then the SciPy calls.
        # Against the bare calls alone the ratio swings with machine speed,
        # which scales the calls and not a wait (5.7-7.4 over ten runs of a
        # burst); the bare calls are timed too, for ``serve.bare_ratio``.
        time.sleep(REFERENCE_WAIT_S)
        t0 = time.perf_counter()
        outs = [a @ x for x in xs]
        bare_s = time.perf_counter() - t0
        if ctx.recording:
            state["bare_s"].append(bare_s)
        return outs

    outs = ctx.ours(combo["name"], send, started=due)
    expected = ctx.ref(combo["name"], reference)
    ctx.attempted += len(xs) - 1   # every request is an operation
    if outs is None:
        ctx.failed += len(xs) - 1  # the whole burst failed with its exception
        return
    for out, ref, pick in zip(outs, expected, picks):
        ctx.check(combo["name"], refs.close(out, ref))
        ctx.check(combo["name"], np.array_equal(out, combo["eager"][pick]),
                  "served response differs from the eager result")


def measure(ctx: Context, state: Any) -> None:
    plan, server = state["plan"], state["server"]
    before = _snapshot(server)
    lags: List[float] = []
    sent = 0
    start_index = state["next"]
    state["bare_s"].clear()
    deadline = ctx.start_timed()
    origin = time.perf_counter() - plan["due_s"][start_index % len(plan["due_s"])]
    while True:
        due = origin + plan["due_s"][state["next"] % len(plan["due_s"])]
        if due >= deadline:
            break
        delay = due - time.perf_counter()
        if delay > 0.001:       # sleep most of the gap, spin the last millisecond:
            time.sleep(delay - 0.001)   # sleep alone wakes up to a millisecond late
        while time.perf_counter() < due:
            pass
        lags.append(max(0.0, time.perf_counter() - due))
        combo, first = _scheduled(state)
        _unit(ctx, state, combo, first, due)
        sent += combo["size"]
    elapsed = time.perf_counter() - (deadline - ctx.seconds)
    ctx.stop_timed()
    server.flush(timeout=60)
    after = _snapshot(server)
    delta = {key: after[key] - before[key] for key in after}
    units = max(state["next"] - start_index, 1)
    ours_s = [s for samples in ctx.ours_s.values() for s in samples]
    ctx.extra.update({
        # Undamped: a unit against the SciPy calls alone, no wait on that side.
        "serve.bare_ratio": statistics.median(ours_s) / statistics.median(state["bare_s"]),
        "serve.occupancy": delta["occupancy_sum"] / delta["batches"] if delta["batches"] else 0.0,
        "serve.batches": delta["batches"] / units,
        "serve.cache_hit_frac": delta["cache_hits"] / delta["requests"] if delta["requests"] else 0.0,
        "serve.degraded_eager": delta["degraded_eager"],
        "serve.degraded_inline": delta["degraded_inline"],
        "serve.errors": delta["errors"],
        "serve.gen_lag_ms": percentile(sorted(lags), 95) * 1e3,
        "serve.offered_rps": sent / ctx.seconds,
        "serve.achieved_rps": delta["requests"] / elapsed,
    })


def _snapshot(server: Any) -> Dict[str, float]:
    stats = server.snapshot().get("default", {})
    batches = stats.get("batches", 0) or 0
    counters = {key: stats.get(key, 0) or 0 for key in
                ("requests", "batches", "cache_hits", "degraded_eager", "degraded_inline", "errors")}
    counters["occupancy_sum"] = (stats.get("mean_occupancy") or 0.0) * batches
    return counters


def steps(state: Any) -> List[Callable[[], None]]:
    """One unit per combination, off schedule (for the exact per-unit counts)."""
    return [lambda combo=combo: _unit(state["ctx"], state, combo, 0) for combo in state["combos"]]


def teardown(state: Any) -> None:
    state["server"].close()
