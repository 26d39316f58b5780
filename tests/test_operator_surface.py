"""One operator record: ``prepare_<op>`` is the only definition of an operator.

``Session.<op>`` and ``GraphBuilder.<op>`` are generated from
``repro.ops.registry.OPERATORS``; these tests pin that the generated surface
is the surface the hand-written one was — same signatures, real class
attributes, Python's own ``TypeError`` for a bad call, one handle per
application however it is spelled — and that a spec's callables neither pin
an operand nor spell a buffer name the ``ops`` module did not choose.
"""

import gc
import importlib
import inspect
import runpy
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.formats.bsr import BSRMatrix
from repro.formats.csr import CSRMatrix
from repro.graph import GraphBuilder
from repro.ops import registry
from repro.ops.batched import (
    batched_sddmm,
    build_batched_sddmm_bsr_program,
    build_batched_spmm_bsr_program,
)
from repro.ops.pruned_spmm import build_pruned_spmm_bsr_program
from repro.ops.sddmm import sddmm
from repro.ops.spmm import build_spmm_hyb_program, spmm
from repro.runtime.session import Session
from repro.workloads.attention import band_mask

ROOT = Path(__file__).resolve().parent.parent
OPERATORS = list(registry.OPERATORS)


def f32(rng, *shape):
    return rng.standard_normal(shape).astype(np.float32)


@pytest.fixture
def rng():
    return np.random.default_rng(11)


@pytest.fixture
def csr():
    return CSRMatrix.random(rows=24, cols=24, density=0.25, seed=4)


@pytest.fixture
def session():
    return Session(persistent=False)


def test_the_registry_lists_the_twelve_operators():
    assert OPERATORS == [
        "spmm", "sddmm", "pruned_spmm", "batched_spmm", "batched_sddmm", "rgms",
        "sparse_conv", "edge_softmax", "batched_spmm_edges", "gemm", "add", "relu",
    ]
    assert all(registry.OPERATORS[op].__name__ == f"prepare_{op}" for op in OPERATORS)


@pytest.mark.parametrize("op", OPERATORS)
class TestGeneratedSurface:
    def test_signatures_are_the_prepare_signature(self, op):
        prepare = list(inspect.signature(registry.OPERATORS[op]).parameters.values())
        eager = list(inspect.signature(getattr(Session, op)).parameters.values())
        captured = list(inspect.signature(getattr(GraphBuilder, op)).parameters.values())
        assert prepare[0].name == "session" and eager[0].name == captured[0].name == "self"
        assert eager[1:] == prepare[1:] == captured[1:]
        # A bound method shows exactly the public parameters.
        assert list(inspect.signature(getattr(Session(persistent=False), op)).parameters) == [
            param.name for param in prepare[1:]
        ]

    def test_methods_are_class_attributes_with_the_shared_docstring(self, op):
        doc = registry.OPERATORS[op].__doc__
        assert doc and doc.strip()
        for cls in (Session, GraphBuilder):
            method = vars(cls)[op]  # in the class __dict__: no __getattr__
            assert inspect.isfunction(method)
            assert method.__name__ == op
            assert method.__qualname__ == f"{cls.__name__}.{op}"
            assert method.__doc__ == doc


#: Span targets whose code was deleted on purpose (edits rebuild the CSR
#: tables, so there is no edit log to merge and no overlay).  ``bench/`` lists
#: a target that no longer resolves as ``missing:<target>``, which is no
#: failure; each one named here must really be gone.
RETIRED_SPAN_TARGETS = {
    "repro.formats.delta:merge_delta",
    "repro.runtime.dynamic:overlay_spmm",
    "repro.runtime.dynamic:overlay_sddmm",
}


def test_every_benchmark_span_target_still_resolves():
    """``bench/tracing.py:_resolve``: a module attribute, or ``vars(Class)[name]``."""
    spans = runpy.run_path(str(ROOT / "bench" / "layers.py"))["SPANS"]
    assert len(spans) > 40
    for _span, _layer, target in spans:
        module_name, _, path = target.partition(":")
        if target in RETIRED_SPAN_TARGETS:
            with pytest.raises(ImportError):
                importlib.import_module(module_name)
            continue
        owner = importlib.import_module(module_name)
        *parents, leaf = path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        assert leaf in vars(owner), target


class TestCallForms:
    def test_every_spelling_of_one_application_is_one_handle(self, session, csr, rng):
        x = f32(rng, csr.cols, 4)
        outs = [
            session.spmm(csr, x),
            session.spmm(csr, features=x),
            session.spmm(csr, x, "csr"),
            session.spmm(csr, x, tuned=False, format="csr"),
            session.spmm(csr=csr, features=x, num_buckets=None, num_col_parts=1),
        ]
        assert session.stats.handle_misses == 1
        assert session.stats.handle_hits == len(outs) - 1
        assert all(np.array_equal(out, outs[0]) for out in outs)

    def test_dtype_spellings_share_a_handle(self, session, csr, rng):
        x = f32(rng, csr.cols, 4)
        session.spmm(csr, x, dtype="float64")
        session.spmm(csr, x, dtype=np.float64)
        assert session.stats.handle_misses == 1 and session.stats.handle_hits == 1

    def test_capture_takes_the_positional_option_eager_takes(self, session, csr, rng):
        x = f32(rng, csr.cols, 4)
        eager = session.spmm(csr, x, "hyb")
        g = session.graph()
        ref = g.spmm(csr, x, "hyb")
        assert ref.node.spec.kind == "spmm_hyb"
        assert np.array_equal(g.compile().run()[ref.name], eager)

    @pytest.mark.parametrize("surface", ["eager", "captured"])
    def test_bad_arguments_are_type_errors_naming_the_argument(self, session, csr, rng, surface):
        x = f32(rng, csr.cols, 4)
        target = session if surface == "eager" else session.graph()
        with pytest.raises(TypeError, match="colour"):
            target.spmm(csr, x, colour="red")
        with pytest.raises(TypeError, match="features"):
            target.spmm(csr, x, features=x)
        with pytest.raises(TypeError, match="features"):
            target.spmm(csr)
        with pytest.raises(TypeError, match="positional"):
            target.relu(x, None, None)
        with pytest.raises(TypeError, match="'y'"):
            target.sddmm(csr, x)
        assert session.stats.builds == 0  # nothing ran, nothing was built

    def test_nothing_on_the_call_path_enters_inspect(self, session, csr, rng, monkeypatch):
        x = f32(rng, csr.cols, 4)

        def trap(*args, **kwargs):
            raise AssertionError("inspect on the call path")

        monkeypatch.setattr(inspect, "signature", trap)
        monkeypatch.setattr(inspect.Signature, "bind", trap)
        session.spmm(csr, x)
        session.spmm(csr, x, format="hyb")
        ref = session.graph().spmm(csr, x)
        assert ref.shape == (csr.rows, 4)


class TestSpecsPinNoOperand:
    def cases(self, csr, rng):
        mask = band_mask(32, 8, 4)
        return [
            ("spmm", (csr,), [f32(rng, csr.cols, 4)], {}),
            ("spmm", (csr,), [f32(rng, csr.cols, 4)], {"format": "hyb"}),
            ("sddmm", (csr,), [f32(rng, csr.rows, 3), f32(rng, 3, csr.cols)], {}),
            ("pruned_spmm", (BSRMatrix.from_csr(csr, 4),), [f32(rng, csr.cols, 5)], {}),
            ("batched_sddmm", (mask,), [f32(rng, 2, 32, 4), f32(rng, 2, 4, 32)], {"scale": 0.5}),
            ("edge_softmax", (csr,), [f32(rng, 2, csr.nnz)], {}),
            ("gemm", (), [f32(rng, 5, 4), f32(rng, 4, 3)], {}),
            ("relu", (), [f32(rng, 5, 4)], {}),
        ]

    def test_operands_are_collectable_after_the_call(self, csr, rng):
        """A handle keeps its spec (to finalise) and the spec its callables;
        neither may keep the arrays of the call that bound it — and the call
        is a cold one, so neither may the cache entry it lowered.
        """
        session = Session(persistent=False)
        cases = self.cases(csr, rng)
        while cases:
            op, structure, operands, options = cases.pop()
            getattr(session, op)(*structure, *operands, **options)
            refs = [weakref.ref(array) for array in operands]
            del operands
            gc.collect()
            assert all(ref() is None for ref in refs), op
        assert session.stats.handle_misses == 8  # every case above left a live handle
        assert session.cache.stats.lowerings == 8  # ... each lowered by the call that was checked


class TestStandaloneKinds:
    """The four kinds that only run alone: the ``ops`` module that builds the
    program also names its buffers, and the registry repeats neither."""

    def cases(self, session, csr, rng):
        mask = band_mask(32, 8, 4)
        x = f32(rng, csr.cols, 4)
        feats, q, k = f32(rng, 2, 32, 4), f32(rng, 2, 32, 4), f32(rng, 2, 4, 32)
        bsr = BSRMatrix.from_csr(csr, 4)
        hyb = session.decompose_hyb(csr, num_col_parts=2)
        mask_bsr = session.decompose_bsr(mask, 4)
        return [
            ("spmm_hyb", registry.prepare(session, "spmm", csr, x, "hyb", 2),
             build_spmm_hyb_program(hyb, 4, x)),
            ("pruned_spmm", registry.prepare(session, "pruned_spmm", bsr, x),
             build_pruned_spmm_bsr_program(bsr, 4, x)),
            ("batched_spmm_bsr",
             registry.prepare(session, "batched_spmm", mask, feats, "bsr", 4),
             build_batched_spmm_bsr_program(mask_bsr, 2, 4, feats)),
            ("batched_sddmm_bsr",
             registry.prepare(session, "batched_sddmm", mask, q, k, "bsr", 4, scale=0.5),
             build_batched_sddmm_bsr_program(mask_bsr, 2, 4, q, k, scale=0.5)),
        ]

    def test_spec_program_is_the_public_builder_program(self, session, csr, rng):
        for kind, spec, public in self.cases(session, csr, rng):
            assert spec.kind == kind and not spec.fusable
            func, names = registry.build_spec_program(spec)
            assert func.script() == public.script()
            buffers = {buf.name for buf in func.buffers}
            assert "out" in names and set(names.values()) <= buffers, kind
            assert set(spec.inputs) <= set(names), kind
            with pytest.raises(ValueError, match="cannot be emitted"):
                registry.emit_spec(None, spec)

    def test_unknown_kind_is_a_value_error(self, session):
        with pytest.raises(ValueError, match="unknown operator kind"):
            registry.prepare(session, "spmv")


class TestFreeFunctionsForwardEveryOption:
    def test_options_the_shims_used_to_drop(self, session, csr, rng):
        x64 = rng.standard_normal((csr.cols, 3))
        y64 = rng.standard_normal((3, csr.cols))
        out = spmm(csr, x64, dtype="float64", session=session)
        assert out.dtype == np.float64
        assert np.array_equal(out, session.spmm(csr, x64, dtype="float64"))
        scores = sddmm(csr, x64[: csr.rows], y64, dtype=np.float64, session=session)
        assert scores.dtype == np.float64
        mask = band_mask(32, 8, 4)
        q, k = f32(rng, 2, 32, 4), f32(rng, 2, 4, 32)
        unfused = batched_sddmm(mask, q, k, fuse_ij=False, session=session)
        assert np.array_equal(unfused, session.batched_sddmm(mask, q, k, fuse_ij=False))

    def test_unknown_option_is_the_session_methods_type_error(self, session, csr, rng):
        with pytest.raises(TypeError, match="colour"):
            spmm(csr, f32(rng, csr.cols, 3), colour="red", session=session)
