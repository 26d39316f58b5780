"""The region proof of :mod:`repro.core.codegen.hazards`, on hand-built nests.

:func:`fused_regions` decides which consecutive top-level nests may run as one
loop over rows with their output elements in register tiles.  Each test builds
the smallest program that shows one clause of the proof — what joins a region,
what ends one and with which reason — without going through lowering, so a
failure names the clause.  (The analysis the emitted NumPy tier rests on,
``analyze_hazards``, and the per-loop ``loop_independence`` are exercised
through whole operators in ``test_vectorized_executor.py`` and
``test_backend_differential.py``.)
"""

import pytest

from repro.core.buffers import FlatBuffer
from repro.core.codegen.hazards import fused_regions
from repro.core.expr import Var
from repro.core.stmt import Block, BufferStore, ForLoop

ROWS, LANES, DEPTH = 6, 8, 5


def buffer(name, rows=ROWS, lanes=LANES, dtype="float32"):
    return FlatBuffer(name, rows * lanes, dtype)


def fill(out, rows=ROWS, lanes=LANES, value=0.0):
    """``out[i, l] = value`` — what an operator's separate init nest looks like."""
    i, l = Var("i"), Var("l")
    return ForLoop(i, 0, rows, ForLoop(l, 0, lanes, BufferStore(out, [i * lanes + l], value)))


def gemm(out, a, b, rows=ROWS, lanes=LANES, init=True):
    """``out[i, l] (+)= a[i, k] * b[k, l]`` with a dense reduction loop ``k``."""
    i, k, l = Var("i"), Var("k"), Var("l")
    at = i * lanes + l
    update = BufferStore(out, [at], out[at] + a[i * DEPTH + k] * b[k * lanes + l])
    body = Block("gemm", update, init=BufferStore(out, [at], 0.0) if init else None)
    return ForLoop(i, 0, rows, ForLoop(k, 0, DEPTH, ForLoop(l, 0, lanes, body)))


def spmm(out, indptr, values, b, rows=ROWS, lanes=LANES):
    """``out[i, l] += values[p] * b[p, l]`` over a sparse (data-dependent) range."""
    i, j, l = Var("i"), Var("j"), Var("l")
    at = i * lanes + l
    update = BufferStore(out, [at], out[at] + values[indptr[i] + j] * b[(indptr[i] + j) * lanes + l])
    return ForLoop(i, 0, rows, ForLoop(j, 0, indptr[i + 1] - indptr[i], ForLoop(l, 0, lanes, update)))


def add(out, a, b, rows=ROWS, lanes=LANES):
    i, l = Var("i"), Var("l")
    at = i * lanes + l
    return ForLoop(i, 0, rows, ForLoop(l, 0, lanes, Block("add", BufferStore(out, [at], a[at] + b[at]))))


def gather(out, src, rowmap, rows=ROWS, lanes=LANES):
    """``out[i, l] = src[rowmap[i], l]``: reads whole rows of *src*."""
    i, l = Var("i"), Var("l")
    return ForLoop(
        i, 0, rows,
        ForLoop(l, 0, lanes, Block("gather", BufferStore(out, [i * lanes + l], src[rowmap[i] * lanes + l]))),
    )


@pytest.fixture
def operands():
    return {
        "a": FlatBuffer("a", ROWS * DEPTH), "b": FlatBuffer("b", DEPTH * LANES),
        "rowmap": FlatBuffer("rowmap", ROWS, "int32"), "indptr": FlatBuffer("indptr", ROWS + 1, "int32"),
        "values": FlatBuffer("values", 64),
    }


def members(regions):
    return [(first, len(run)) for first, run in regions]


class TestWhatJoins:
    def test_init_nest_producer_and_elementwise_consumers_are_one_region(self, operands):
        y, c, d = buffer("y"), buffer("c"), buffer("d")
        nests = [fill(y), gemm(y, operands["a"], operands["b"], init=False), add(c, y, y), add(d, c, y)]
        regions, declined = fused_regions(nests)
        assert members(regions) == [(0, 4)] and declined == {}
        (_first, run), = regions
        assert [m.plain for m in run] == [True, False, True, True]
        assert [m.dense_reduction for m in run] == [False, True, False, False]

    def test_a_reduction_init_joins_when_nothing_touches_the_buffer_before(self, operands):
        c, d = buffer("c"), buffer("d")
        regions, _ = fused_regions([gemm(c, operands["a"], operands["b"]), add(d, c, c)])
        assert members(regions) == [(0, 2)] and regions[0][1][0].init

    def test_members_may_accumulate_into_one_buffer(self, operands):
        y = buffer("y")
        nests = [fill(y)] + [gemm(y, operands["a"], operands["b"], init=False) for _ in range(3)]
        assert members(fused_regions(nests)[0]) == [(0, 4)]


class TestWhatPays:
    def test_a_lone_nest_is_no_region_and_no_decline(self, operands):
        c = buffer("c")
        assert fused_regions([gemm(c, operands["a"], operands["b"])]) == ([], {})

    def test_a_run_without_a_dense_reduction_loop_is_no_region(self, operands):
        """A sparse reduction re-runs its gather once per tile: fusing it with
        its consumer was measured slower, so it stays serial — silently."""
        y, c = buffer("y"), buffer("c")
        nests = [fill(y), spmm(y, operands["indptr"], operands["values"], operands["b"]), add(c, y, y)]
        assert fused_regions(nests) == ([], {})


class TestWhatEndsARegion:
    def region_and_reason(self, nests, label):
        regions, declined = fused_regions(nests)
        return members(regions), declined.get(f"fuse {label}")

    def test_a_consumer_that_gathers_rows_of_a_members_output(self, operands):
        c, d, e = buffer("c"), buffer("d"), buffer("e")
        nests = [gemm(c, operands["a"], operands["b"]), add(d, c, c), gather(e, d, operands["rowmap"])]
        found, why = self.region_and_reason(nests, "gather")
        assert found == [(0, 2)]
        assert why == "it reads 'd', which the region writes, other than at its own element"

    def test_a_gemm_that_consumes_a_members_row(self, operands):
        c, d = buffer("c", lanes=DEPTH), buffer("d", lanes=DEPTH)
        square = FlatBuffer("square", DEPTH * DEPTH)
        first = gemm(c, operands["a"], square, lanes=DEPTH, init=False)
        nests = [fill(c, lanes=DEPTH), first, gemm(d, c, square, lanes=DEPTH)]
        found, why = self.region_and_reason(nests, "gemm")
        # The second gemm reads c[i, k] for every k: a whole row, not its own element.
        assert found == [(0, 2)]
        assert why == "it reads 'c', which the region writes, other than at its own element"

    def test_a_later_nest_writing_what_a_member_gathers(self, operands):
        c, d, x = buffer("c"), buffer("d"), buffer("x")
        nests = [gemm(c, operands["a"], operands["b"]), gather(d, x, operands["rowmap"]), add(x, c, c)]
        found, why = self.region_and_reason(nests, "add")
        assert found == [(0, 2)]
        assert why == "it writes 'x', which the region reads other than at that element"

    def test_the_run_is_cut_in_front_of_the_next_accumulators_init_nest(self, operands):
        """``fill(y)`` could close the first region, but nothing there reads
        ``y``: it belongs with the nest that accumulates into it."""
        c, d, y = buffer("c"), buffer("d"), buffer("y")
        i, k, l = Var("i"), Var("k"), Var("l")
        at = i * LANES + l
        gathered = d[operands["rowmap"][i] * LANES + k] * operands["b"][k * LANES + l]
        follower = ForLoop(i, 0, ROWS, ForLoop(k, 0, DEPTH, ForLoop(l, 0, LANES, Block(
            "follower", BufferStore(y, [at], y[at] + gathered)))))
        nests = [gemm(c, operands["a"], operands["b"]), add(d, c, c), fill(y), follower]
        found, why = self.region_and_reason(nests, "follower")
        assert found == [(0, 2), (2, 2)]
        assert why == "it reads 'd', which the region writes, other than at its own element"

    def test_unequal_row_extents(self, operands):
        c, d, e = buffer("c"), buffer("d"), buffer("e", rows=ROWS + 1)
        nests = [gemm(c, operands["a"], operands["b"]), add(d, c, c), fill(e, rows=ROWS + 1)]
        found, why = self.region_and_reason(nests, "i")
        assert found == [(0, 2)] and why == f"its row loop has extent {ROWS + 1}, the region's {ROWS}"

    def test_unequal_lane_extents_and_dtypes(self, operands):
        c, narrow, wide = buffer("c"), buffer("n", lanes=4), buffer("w", dtype="float64")
        _, why = self.region_and_reason([gemm(c, operands["a"], operands["b"]), fill(narrow, lanes=4)], "i")
        assert why == f"its innermost loop has extent 4, the region's {LANES}"
        _, why = self.region_and_reason([gemm(c, operands["a"], operands["b"]), fill(wide)], "i")
        assert why == "it stores float64, the region float32"

    def test_a_store_that_is_not_row_times_stride_plus_lane(self, operands):
        c, d = buffer("c"), buffer("d", lanes=2 * LANES)

        def store_at(index):
            i, l = Var("i"), Var("l")
            return ForLoop(i, 0, ROWS, ForLoop(l, 0, LANES, BufferStore(d, [index(i, l)], 1.0)))

        strided = store_at(lambda i, l: i * LANES + l * 2)
        scattered = store_at(lambda i, l: operands["rowmap"][i] * LANES + l)
        shifted = store_at(lambda i, l: i * LANES + l + 1)
        reasons = [
            self.region_and_reason([gemm(c, operands["a"], operands["b"]), nest], "i")
            for nest in (strided, scattered, shifted)
        ]
        assert [found for found, _why in reasons] == [[], [], []]
        assert "does not move with 'l' at unit stride" in reasons[0][1]
        assert reasons[1][1] == reasons[2][1] == "the store to 'd' is not at [row * stride + lane]"

    def test_an_init_that_cannot_move_next_to_its_compute_pass(self, operands):
        """The interpreter runs every init before any compute: a nest in between
        that reads the buffer would see the init's zeros, not what came before."""
        c, d = buffer("c"), buffer("d")
        nests = [add(d, c, c), gemm(c, operands["a"], operands["b"]), add(d, c, c)]
        regions, declined = fused_regions(nests)
        assert regions == [] and declined == {}  # nothing worth fusing was ended

    def test_a_decline_is_recorded_only_where_a_region_would_have_paid(self, operands):
        y, c = buffer("y"), buffer("c")
        nests = [fill(y), gather(c, y, operands["rowmap"])]
        assert fused_regions(nests) == ([], {})
