"""Unit tests for kernel building, pseudo-CUDA emission and horizontal fusion."""

import numpy as np
import pytest

from repro.core import Schedule, build, lower_sparse_iterations
from repro.core.codegen.fusion import horizontal_fuse, is_horizontally_fused, launch_count, launch_groups
from repro.formats import ELLMatrix
from repro.formats.conversion import ell_rewrite_rule
from repro.core import decompose_format
from repro.ops.spmm import build_spmm_program
from repro.sim import V100, cuda_source, profile_kernel


@pytest.fixture
def spmm_program(small_csr, rng):
    features = rng.standard_normal((small_csr.cols, 4)).astype(np.float32)
    return small_csr, build_spmm_program(small_csr, 4, features)


def test_build_from_stage1(spmm_program):
    _, func = spmm_program
    kernel = build(func)
    assert kernel.func.stage == "stage-III"
    assert kernel.num_launches == 1


def test_build_rejects_wrong_direction(spmm_program):
    _, func = spmm_program
    kernel = build(func)
    # Re-building an already stage-III program is fine; a bogus stage is not.
    rebuilt = build(kernel.func)
    assert rebuilt.num_launches == 1


def test_cuda_source_contains_kernel_and_params(spmm_program):
    _, func = spmm_program
    source = cuda_source(build(func))
    assert "__global__ void spmm_kernel_0" in source
    assert "float* __restrict__ A" in source
    assert "int* __restrict__ J_indptr" in source
    assert "J_indices" in source


def test_cuda_source_reflects_schedule_annotations(spmm_program):
    _, func = spmm_program
    stage2 = lower_sparse_iterations(func)
    schedule = Schedule(stage2)
    loops = schedule.get_loops("spmm_compute")
    schedule.bind(loops[0], "blockIdx.x")
    schedule.vectorize(schedule.get_loops("spmm_compute")[-1])
    schedule.tensorize("spmm_compute", "mma_m16n16k16")
    source = cuda_source(build(schedule.func))
    assert "blockIdx.x" in source
    assert "vectorized" in source
    assert "tensorize" in source


def test_horizontal_fusion_reduces_launches(small_csr, rng):
    features = rng.standard_normal((small_csr.cols, 2)).astype(np.float32)
    program = build_spmm_program(small_csr, 2, features)
    decomposed = decompose_format(program, [ell_rewrite_rule(ELLMatrix.from_csr(small_csr))])
    unfused = build(decomposed, horizontal_fusion=False)
    fused = build(decomposed, horizontal_fusion=True)
    assert unfused.num_launches >= 2
    assert fused.num_launches == 1
    # Both produce one __global__ function per launch group in the listing.
    assert cuda_source(unfused).count("__global__") == len(launch_groups(unfused.func))


def test_fusion_helpers(spmm_program):
    _, func = spmm_program
    kernel = build(func, horizontal_fusion=False)
    assert not is_horizontally_fused(kernel.func)
    fused = horizontal_fuse(kernel.func)
    assert is_horizontally_fused(fused)
    assert launch_count(fused) == 1


def test_kernel_profile_returns_report(spmm_program):
    _, func = spmm_program
    report = profile_kernel(build(func), V100)
    assert report.duration_us > 0
    assert report.total_flops > 0
    assert report.device == "V100"


def test_kernel_repr(spmm_program):
    _, func = spmm_program
    assert "Kernel(" in repr(build(func))
