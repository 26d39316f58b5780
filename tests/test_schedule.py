"""Unit tests for stage-II schedule primitives."""

import numpy as np
import pytest

from repro.core import Schedule, build, lower_sparse_iterations
from repro.core.stage2.schedule import ScheduleError
from repro.core.stmt import LOOP_THREAD_BINDING, LOOP_UNROLLED, LOOP_VECTORIZED
from repro.ops.spmm import build_spmm_program, spmm_reference
from repro.sim import cuda_source


@pytest.fixture
def scheduled_env(small_csr, rng):
    feat = 8
    features = rng.standard_normal((small_csr.cols, feat)).astype(np.float32)
    func = build_spmm_program(small_csr, feat, features)
    stage2 = lower_sparse_iterations(func)
    return small_csr, features, feat, Schedule(stage2)


def run_and_check(schedule, csr, features, feat):
    out = build(schedule.func).run()
    reference = spmm_reference(csr, features)
    assert np.allclose(out["C"].reshape(csr.rows, feat), reference, atol=1e-4)


def test_get_loops_returns_outermost_first(scheduled_env):
    _, _, _, schedule = scheduled_env
    loops = schedule.get_loops("spmm_compute")
    assert [l.loop_var.name for l in loops] == ["i_it_p", "j_it_p", "k_it_p"]


def test_split_preserves_semantics_divisible(scheduled_env):
    csr, features, feat, schedule = scheduled_env
    loops = schedule.get_loops("spmm_compute")
    outer, inner = schedule.split(loops[-1], factor=4)
    assert inner.extent.value == 4
    run_and_check(schedule, csr, features, feat)


def test_split_preserves_semantics_non_divisible(scheduled_env):
    csr, features, feat, schedule = scheduled_env
    loops = schedule.get_loops("spmm_compute")
    schedule.split(loops[-1], factor=3)  # 8 not divisible by 3 -> guard emitted
    run_and_check(schedule, csr, features, feat)


def test_split_rejects_bad_factor(scheduled_env):
    _, _, _, schedule = scheduled_env
    loops = schedule.get_loops("spmm_compute")
    with pytest.raises(ScheduleError):
        schedule.split(loops[-1], factor=0)


def test_fuse_loops_preserves_semantics(scheduled_env):
    csr, features, feat, schedule = scheduled_env
    loops = schedule.get_loops("spmm_compute")
    fused = schedule.fuse(loops[1], loops[2])
    assert "f" in fused.loop_var.name
    run_and_check(schedule, csr, features, feat)


def test_reorder_inner_loops_preserves_semantics(scheduled_env):
    csr, features, feat, schedule = scheduled_env
    loops = schedule.get_loops("spmm_compute")
    schedule.reorder(loops[2], loops[1])
    new_loops = schedule.get_loops("spmm_compute")
    assert [l.loop_var.name for l in new_loops] == ["i_it_p", "k_it_p", "j_it_p"]
    run_and_check(schedule, csr, features, feat)


def test_reorder_across_block_boundary_is_rejected(scheduled_env):
    """Blocks forbid cross-block reordering (Section 3.3.1 step 2)."""
    _, _, _, schedule = scheduled_env
    loops = schedule.get_loops("spmm_compute")
    with pytest.raises(ScheduleError):
        schedule.reorder(loops[1], loops[0])


def test_bind_thread_tags_and_execution(scheduled_env):
    csr, features, feat, schedule = scheduled_env
    loops = schedule.get_loops("spmm_compute")
    bound = schedule.bind(loops[0], "blockIdx.x")
    assert bound.kind == LOOP_THREAD_BINDING
    assert bound.thread_tag == "blockIdx.x"
    schedule.bind(schedule.get_loops("spmm_compute")[-1], "threadIdx.x")
    run_and_check(schedule, csr, features, feat)


def test_bind_rejects_unknown_tag(scheduled_env):
    _, _, _, schedule = scheduled_env
    loops = schedule.get_loops("spmm_compute")
    with pytest.raises(ScheduleError):
        schedule.bind(loops[0], "warpIdx.q")


def test_vectorize_unroll_parallel_kinds(scheduled_env):
    csr, features, feat, schedule = scheduled_env
    loops = schedule.get_loops("spmm_compute")
    assert schedule.vectorize(loops[2]).kind == LOOP_VECTORIZED
    assert schedule.unroll(schedule.get_loops("spmm_compute")[1]).kind == LOOP_UNROLLED
    run_and_check(schedule, csr, features, feat)


def test_cache_read_write_annotations(scheduled_env):
    csr, features, feat, schedule = scheduled_env
    schedule.cache_read("spmm_compute", "B", "shared")
    schedule.cache_write("spmm_compute", "C", "local")
    block = schedule.get_block("spmm_compute")
    assert block.annotations["cache_read"][0]["buffer"] == "B"
    assert block.annotations["cache_write"][0]["scope"] == "local"
    run_and_check(schedule, csr, features, feat)


def test_cache_read_rejects_unknown_buffer_or_scope(scheduled_env):
    _, _, _, schedule = scheduled_env
    with pytest.raises(ScheduleError):
        schedule.cache_read("spmm_compute", "NOPE", "shared")
    with pytest.raises(ScheduleError):
        schedule.cache_read("spmm_compute", "B", "l3")


def test_rfactor_and_tensorize_annotations(scheduled_env):
    csr, features, feat, schedule = scheduled_env
    schedule.rfactor("spmm_compute", factor=4)
    schedule.tensorize("spmm_compute", "mma_m16n16k16")
    block = schedule.get_block("spmm_compute")
    assert block.annotations["rfactor"] == {"factor": 4}
    assert block.annotations["tensorize"] == "mma_m16n16k16"
    run_and_check(schedule, csr, features, feat)


def test_tensorize_rejects_unknown_intrinsic(scheduled_env):
    _, _, _, schedule = scheduled_env
    with pytest.raises(ScheduleError):
        schedule.tensorize("spmm_compute", "mma_m3n3k3")


def test_rfactor_rejects_bad_factor(scheduled_env):
    _, _, _, schedule = scheduled_env
    with pytest.raises(ScheduleError):
        schedule.rfactor("spmm_compute", factor=0)


def test_schedule_trace_records_operations(scheduled_env):
    _, _, _, schedule = scheduled_env
    loops = schedule.get_loops("spmm_compute")
    schedule.split(loops[-1], 4)
    schedule.cache_read("spmm_compute", "B", "shared")
    kinds = [entry[0] for entry in schedule.trace]
    assert "split" in kinds and "cache_read" in kinds


def test_schedule_requires_lowered_program(small_csr, rng):
    func = build_spmm_program(small_csr, 4, rng.standard_normal((small_csr.cols, 4)).astype(np.float32))
    with pytest.raises(ScheduleError):
        Schedule(func)


def test_composed_schedule_pipeline(scheduled_env):
    """split + bind + vectorize composed together, then executed."""
    csr, features, feat, schedule = scheduled_env
    loops = schedule.get_loops("spmm_compute")
    schedule.bind(loops[0], "blockIdx.x")
    loops = schedule.get_loops("spmm_compute")
    outer, inner = schedule.split(loops[-1], 4)
    schedule.bind(outer, "threadIdx.x")
    schedule.vectorize(inner)
    run_and_check(schedule, csr, features, feat)
    source = cuda_source(build(schedule.func))
    assert "blockIdx.x" in source and "threadIdx.x" in source
