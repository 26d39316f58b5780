"""``dynamic-mix``: writes beside reads on mutable matrices.

Closed loop, one client, two mutable graphs (cora and pubmed, width 8).  One
unit is a *window*: insert ``k`` edges, delete ``k`` edges, then ``spmm``;
every 4th window also ``sddmm``.  Auto-compaction fires at the default 0.25
drift threshold *inside* the timed window, and the next query then lowers
and compiles a kernel for the new base structure.

This uses the session and the kernel cache the other way round from the
eager workloads: structure changes under the memo.  A handle memoised on
``(id, structure_epoch)`` can speed ``eager-small`` and slow this workload;
``e2e.latency_ms`` (the typical window) against ``e2e.mean_ms`` (amortised over
compaction and re-lowering) separates the two.

The edit script is stationary: every window deletes exactly what was
inserted four windows earlier and re-inserts the base edges it tombstoned
four windows earlier, so nnz and the degree profile stay where they started
however long the run (a script with net growth would measure a different
matrix at the end of the window than at its start).

The reference applies the same edits to a sorted edge list with NumPy,
rebuilds a SciPy CSR and multiplies — what a user of the vendor library
does with a changing graph.  At the end the matrix must equal, bit for bit,
a cold rebuild from the reference's explicit edge set.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, List

import numpy as np

import inputs
import refs
from harness import Context, geomean, median_ms, summarize

#: (graph, feature width, fresh edges per window, base edges tombstoned per window)
MATRICES = (("cora", 8, 64, 32), ("pubmed", 8, 128, 64))
LAG = 4            # windows between an edit and its undoing
SDDMM_EVERY = 4
#: The script is a fixed number of windows per matrix and second of --seconds,
#: not a deadline: every run then crosses the same compactions at the same
#: windows, whatever the machine's speed.  Sized to fill the window on the
#: box the baseline was taken on.
WINDOWS_PER_SECOND = 50


class EditScript:
    """The seeded, stationary edit script of one matrix."""

    def __init__(self, edges: refs.EdgeSet, seed: int, tag: str, fresh: int, tombstones: int):
        self.edges = edges              # read only: used to draw absent / present coordinates
        self.gen = inputs.rng(seed, f"dynamic/{tag}")
        self.fresh, self.tombstones = fresh, tombstones
        self.history: deque = deque()

    def next_window(self) -> Dict[str, np.ndarray]:
        """Edits of the next window; call after the previous one was applied
        to ``edges`` (absence and presence are read from it)."""
        rows_n, cols_n = self.edges.shape
        empty = np.zeros(0, dtype=np.int64)
        inserted = np.concatenate([w["ins_keys"] for w in self.history] or [empty])
        removed = np.concatenate([w["del_keys"] for w in self.history] or [empty])
        # Fresh coordinates: absent from the matrix and not about to be
        # re-inserted by an undo (an edit batch never names an edge twice).
        ins_keys = empty
        while ins_keys.size < self.fresh:
            r = self.gen.integers(0, rows_n, size=self.fresh * 2)
            c = self.gen.integers(0, cols_n, size=self.fresh * 2)
            keys = r * cols_n + c
            keys = keys[np.sort(np.unique(keys, return_index=True)[1])]
            new = ~self.edges.contains(keys // cols_n, keys % cols_n)
            new &= ~np.isin(keys, removed) & ~np.isin(keys, ins_keys)
            ins_keys = np.concatenate([ins_keys, keys[new]])[: self.fresh]
        ins_v = (self.gen.random(self.fresh) + 0.1).astype(self.edges.vals.dtype)
        # Tombstones: present edges the script did not insert within the lag
        # (those are deleted by their own undo).
        pick = self.gen.choice(len(self.edges.keys), size=self.tombstones * 2, replace=False)
        pick = pick[~np.isin(self.edges.keys[pick], inserted)][: self.tombstones]
        del_keys, del_v = self.edges.keys[pick], self.edges.vals[pick]
        window = {
            "ins_r": ins_keys // cols_n, "ins_c": ins_keys % cols_n, "ins_v": ins_v,
            "ins_keys": ins_keys, "del_keys": del_keys,
            "del_r": del_keys // cols_n, "del_c": del_keys % cols_n, "del_v": del_v,
        }
        self.history.append(window)
        if len(self.history) > LAG:         # undo the window LAG steps back
            old = self.history.popleft()
            window = dict(window)
            window["ins_r"] = np.concatenate([window["ins_r"], old["del_r"]])
            window["ins_c"] = np.concatenate([window["ins_c"], old["del_c"]])
            window["ins_v"] = np.concatenate([ins_v, old["del_v"]])
            window["del_r"] = np.concatenate([window["del_r"], old["ins_r"]])
            window["del_c"] = np.concatenate([window["del_c"], old["ins_c"]])
        return window

    def digest(self, windows: int) -> str:
        """Hash of the first *windows* windows (consumes them; self-test only)."""
        parts: List[Any] = []
        for _ in range(windows):
            window = self.next_window()
            self.edges.insert(window["ins_r"], window["ins_c"], window["ins_v"])
            self.edges.delete(window["del_r"], window["del_c"])
            parts.extend(window[key] for key in ("ins_r", "ins_c", "ins_v", "del_r", "del_c"))
        return inputs.digest(*parts)


def make_matrix(seed: int, graph: str):
    base = inputs.graph(graph, seed)
    return inputs.mutable_copy(base), refs.EdgeSet(base.shape, base.indptr, base.indices, base.data)


def setup(ctx: Context) -> Any:
    from repro.runtime.session import Session

    session = Session()
    matrices = []
    for graph, width, fresh, tombstones in MATRICES:
        name = f"window-{graph}-k{width}-e{fresh}+{tombstones}".replace("+", "p")
        csr, edges = make_matrix(ctx.seed, graph)
        gen = inputs.rng(ctx.seed, f"dynamic/{graph}/features")
        matrix = {
            "name": name, "csr": csr, "edges": edges, "windows": 0, "compactions": 0,
            "script": EditScript(edges, ctx.seed, graph, fresh, tombstones),
            "x": gen.standard_normal((csr.cols, width)).astype(np.float32),
            "p": gen.standard_normal((csr.rows, width)).astype(np.float32),
            "q": gen.standard_normal((width, csr.cols)).astype(np.float32),
        }
        ctx.case_info[name] = {"macs": csr.nnz * width, "inputs": inputs.digest(
            csr.indptr, csr.indices, csr.data, matrix["x"])}
        matrices.append(matrix)
    steps = [_step(ctx, session, matrix) for matrix in matrices]
    for step in steps:
        for _ in range(2 * LAG):   # compile both kernels, reach the stationary regime
            step()
    return {"session": session, "matrices": matrices, "steps": steps}


def _step(ctx: Context, session: Any, m: Dict[str, Any]) -> Callable[[], None]:
    csr, edges = m["csr"], m["edges"]

    def step() -> None:
        window = m["script"].next_window()
        with_sddmm = m["windows"] % SDDMM_EVERY == SDDMM_EVERY - 1
        m["windows"] += 1

        def ours():
            pending = csr.pending_delta
            csr.insert_edges(window["ins_r"], window["ins_c"], window["ins_v"])
            csr.delete_edges(window["del_r"], window["del_c"])
            compacted = csr.pending_delta < pending // 2   # only compaction halves it
            out = session.spmm(csr, m["x"])
            scores = session.sddmm(csr, m["p"], m["q"]) if with_sddmm else None
            return out, scores, compacted

        def ref():
            edges.insert(window["ins_r"], window["ins_c"], window["ins_v"])
            edges.delete(window["del_r"], window["del_c"])
            indptr, indices, vals = edges.csr_arrays()
            a = refs.sp.csr_matrix((vals, indices, indptr), shape=edges.shape)
            out = a @ m["x"]
            scores = (refs.sddmm(vals, refs.edge_rows(indptr), indices, m["p"], m["q"])
                      if with_sddmm else None)
            return out, scores

        result = ctx.ours(m["name"], ours)
        expected = ctx.ref(m["name"], ref)
        if result is None:
            return
        out, scores, compacted = result
        m["compactions"] += bool(compacted)
        if ctx.recording:
            ctx.tags[m["name"]][-1] = "compact" if compacted else ("sddmm" if with_sddmm else "plain")
        ctx.check(m["name"], refs.close(out, expected[0]))
        if with_sddmm:
            ctx.check(m["name"], refs.close(scores, expected[1]), "sddmm outside tolerance")
    return step


def measure(ctx: Context, state: Any) -> None:
    before = [(m["windows"], m["compactions"]) for m in state["matrices"]]
    ctx.start_timed()
    for _ in range(max(2 * SDDMM_EVERY, int(ctx.seconds * WINDOWS_PER_SECOND))):
        for step in state["steps"]:
            step()
    ctx.stop_timed()
    windows = sum(m["windows"] - b[0] for m, b in zip(state["matrices"], before))
    compactions = sum(m["compactions"] - b[1] for m, b in zip(state["matrices"], before))
    by_tag: Dict[str, List[float]] = {"compact": [], "sddmm": [], "plain": []}
    for name, samples in ctx.ours_s.items():
        for seconds, tag in zip(samples, ctx.tags[name]):
            by_tag[tag or "plain"].append(seconds)
    ctx.extra.update({
        "dynamic.compactions": compactions / max(windows, 1),
        "dynamic.compact_window_ms": summarize(by_tag["compact"])["median"] * 1e3,
        "dynamic.sddmm_window_ms": summarize(by_tag["sddmm"])["median"] * 1e3,
        "dynamic.plain_window_ms": summarize(by_tag["plain"])["median"] * 1e3,
    })


def steps(state: Any) -> List[Callable[[], None]]:
    return state["steps"]



def verify(ctx: Context, state: Any) -> None:
    """The final matrix against a cold rebuild from the explicit edge set,
    and the bypass: the same query on the compacted matrix (no overlay)."""
    from repro.formats.csr import CSRMatrix
    from repro.runtime.session import Session

    base_ms = []
    for m in state["matrices"]:
        csr, edges = m["csr"], m["edges"]
        served = state["session"].spmm(csr, m["x"])
        indptr, indices, vals = edges.csr_arrays()
        rebuilt = CSRMatrix(edges.shape, indptr, indices, vals, dtype=csr.dtype)
        cold = Session(persistent=False).spmm(rebuilt, m["x"])
        csr.compact()
        ctx.attempted += 2
        ctx.check(m["name"], np.array_equal(served, cold), "differs from a cold rebuild")
        ctx.check(
            m["name"],
            np.array_equal(csr.indptr, indptr) and np.array_equal(csr.indices, indices)
            and np.array_equal(csr.data, vals),
            "final matrix differs from the explicit edge set",
        )
        # The warming call compiles for the compacted base.
        base_ms.append(median_ms(lambda: state["session"].spmm(csr, m["x"])))
    ctx.extra["dynamic.base_query_ms"] = geomean(base_ms)
