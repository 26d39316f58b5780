"""Quickstart: build, lower, run and profile a SparseTIR SpMM kernel.

This walks the full pipeline of the paper on a small random sparse matrix:

1. write the stage-I (coordinate space) program with the builder API;
2. lower it to stage II (position space) and stage III (flat loops);
3. execute the compiled kernel on the NumPy runtime (native C kernel when
   a compiler is present, emitted NumPy kernel otherwise) through a
   compile-once/run-many Session and check it against a dense reference;
4. inspect the generated CUDA-like listing;
5. estimate its execution time on a simulated V100.

Run with:  python examples/quickstart.py
"""

import numpy as np

from repro.core import Schedule, lower_sparse_iterations
from repro.formats import CSRMatrix
from repro.ops.spmm import build_spmm_program, spmm_reference
from repro.runtime import Session
from repro.sim import V100, cuda_source, profile_kernel


def main() -> None:
    rng = np.random.default_rng(0)
    matrix = CSRMatrix.random(rows=64, cols=96, density=0.08, seed=0)
    feat_size = 16
    features = rng.standard_normal((matrix.cols, feat_size)).astype(np.float32)
    session = Session()

    # 1. Stage-I program (Figure 3 of the paper).
    program = build_spmm_program(matrix, feat_size, features)
    print("=== stage-I program ===")
    print(program.script())

    # 2. Lower to stage II and apply a loop-level schedule: bind the row loop
    #    to thread blocks and the feature loop to threads.
    stage2 = lower_sparse_iterations(program)
    schedule = Schedule(stage2)
    loops = schedule.get_loops("spmm_compute")
    schedule.bind(loops[0], "blockIdx.x")
    schedule.bind(loops[-1], "threadIdx.x")

    # 3. Build (stage III + codegen, cached structurally by the session) and
    #    execute on the fastest tier the runtime has for this program.
    kernel = session.build(schedule.func)
    out = session.run_kernel(kernel)
    result = out["C"].reshape(matrix.rows, feat_size)
    reference = spmm_reference(matrix, features)
    error = np.abs(result - reference).max()
    print(f"max |error| vs dense reference: {error:.2e} "
          f"(engine: {kernel.last_engine})")
    assert error < 1e-4

    # Rebuilding the same structure hits the session's kernel cache, and the
    # new value arrays are rebound — this is the compile-once/run-many path a
    # model uses when it executes the same kernel every layer.
    other = rng.standard_normal((matrix.cols, feat_size)).astype(np.float32)
    session.run(build_spmm_program(matrix, feat_size, other), horizontal_fusion=True)
    session.run(build_spmm_program(matrix, feat_size, features))
    print(f"session stats after re-runs: {session.stats.as_dict()}")

    # 4. The CUDA-like listing produced by code generation.
    print("=== generated kernel (excerpt) ===")
    print("\n".join(cuda_source(kernel).splitlines()[:16]))

    # 5. Performance estimate on a simulated V100.
    report = profile_kernel(kernel, V100)
    print(
        f"estimated duration on {report.device}: {report.duration_us:.1f} us "
        f"({report.total_flops / 1e6:.2f} MFLOP, {report.total_dram_bytes / 1e6:.2f} MB DRAM)"
    )


if __name__ == "__main__":
    main()
