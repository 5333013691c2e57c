"""The cell formatter behind every CSV artifact: exact strings per value type."""

import math

import numpy as np
import pytest

from flowlens.util import format_value


@pytest.mark.parametrize("value, text", [
    (0, "0"),
    (-0.0, "0"),
    (2**70, "1180591620717411303424"),
    (-(2**70), "-1180591620717411303424"),
    (True, "1"),
    (False, "0"),
    (np.int64(5), "5"),
    (np.float32(0.5), "0.5"),
    (np.float64(3.0), "3"),
    (np.bool_(True), "1"),
    (1e15, "1000000000000000"),
    (1e15 - 1, "999999999999999"),
    (-(1e15 - 1), "-999999999999999"),
    (1e20, "100000000000000000000"),
    (123456.0, "123456"),
    (-2.5, "-2.5"),
    (0.1234565, "0.123456"),
    (1.0000005, "1.000001"),
    (1e-6, "0.000001"),
    (-1e-7, "0"),
    (1e-7, "0"),
    ("a\rb", "a\rb"),
    ("", ""),
])
def test_format_value_exact(value, text):
    assert format_value(value) == text


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float32("nan"),
                                   np.float64("inf")])
def test_format_value_rejects_non_finite(value):
    with pytest.raises(ValueError, match="non-finite"):
        format_value(value)
