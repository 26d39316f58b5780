"""Unit tests for the shared content-hash / dtype-resolution helpers."""

import numpy as np
import pytest

from repro.runtime.keys import content_key, resolve_dtype


class TestContentKey:
    def test_deterministic(self):
        a = np.arange(6, dtype=np.float32)
        assert content_key("spmm", a, 4) == content_key("spmm", a, 4)

    def test_array_content_sensitivity(self):
        a = np.arange(6, dtype=np.float32)
        b = a.copy()
        b[3] = -1.0
        assert content_key(a) != content_key(b)

    def test_dtype_participates(self):
        a = np.arange(6, dtype=np.int32)
        assert content_key(a) != content_key(a.astype(np.int64))

    def test_order_participates(self):
        assert content_key("a", "b") != content_key("b", "a")

    def test_scalar_and_none_parts(self):
        assert content_key("x", None, 3) != content_key("x", None, 4)
        assert content_key("x", None) != content_key("x", "None2")

    def test_delimiter_prevents_concatenation_collisions(self):
        assert content_key("ab", "c") != content_key("a", "bc")

    def test_multidimensional_array_flattens_by_content(self):
        a = np.arange(6, dtype=np.float32).reshape(2, 3)
        b = np.arange(6, dtype=np.float32).reshape(3, 2)
        # Same bytes + same dtype hash identically regardless of view shape;
        # callers embed shape explicitly when it matters.
        assert content_key(a) == content_key(b)


class TestResolveDtype:
    def test_default_is_float32(self):
        x = np.ones(3, dtype=np.float32)
        assert resolve_dtype([x], None) == "float32"

    def test_any_float64_operand_promotes(self):
        x = np.ones(3, dtype=np.float32)
        y = np.ones(3, dtype=np.float64)
        assert resolve_dtype([x, y], None) == "float64"
        assert resolve_dtype([y, x], None) == "float64"

    def test_explicit_dtype_wins(self):
        y = np.ones(3, dtype=np.float64)
        assert resolve_dtype([y], "float32") == "float32"

    def test_explicit_dtype_validated(self):
        with pytest.raises(ValueError):
            resolve_dtype([np.ones(2)], "int32")

    def test_dtype_bearing_objects(self):
        class Ref:
            dtype = "float64"

        assert resolve_dtype([Ref()], None) == "float64"

    def test_none_operands_ignored(self):
        assert resolve_dtype([None, np.ones(2, dtype=np.float32)], None) == "float32"
