import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liechan import textfmt


def _g17_rows(table):
    return [",".join("%.17g" % x for x in row) for row in table.tolist()]


def test_format_rows_random_bit_patterns():
    rng = np.random.default_rng(17)
    table = rng.integers(0, 2**64, size=10**6, dtype=np.uint64).view(np.float64).reshape(-1, 10)
    assert textfmt.format_rows(table) == _g17_rows(table)
    # the same with exponents drawn where the array path formats (2^-100 .. 2^54)
    bits = table.view(np.uint64) & np.uint64(0x800F_FFFF_FFFF_FFFF)
    bits |= rng.integers(1023 - 100, 1023 + 54, size=bits.shape, dtype=np.uint64) << np.uint64(52)
    assert textfmt.format_rows(bits.view(np.float64)) == _g17_rows(bits.view(np.float64))


def test_format_rows_ties_and_binary_fractions():
    rng = np.random.default_rng(18)
    halves = rng.integers(10**15, 10**16, size=20000) + 0.5
    sixteenths = rng.integers(10**15, 10**16, size=20000) + rng.integers(0, 16, size=20000) / 16
    k1024 = rng.integers(-10**12, 10**12, size=20000) / 1024
    # exact ties of the 17th digit: E decimal places past 16 - E, the last a 5
    ties = np.concatenate([
        rng.integers(10**e, 10**(e + 1), size=4000)
        + (2 * rng.integers(0, 2**(16 - e), size=4000) + 1) / 2**(17 - e)
        for e in range(10, 15)
    ])
    for values in (halves, sixteenths, k1024, np.arange(-5000, 5000) / 1024, ties):
        table = values.reshape(-1, 8)
        assert textfmt.format_rows(table) == _g17_rows(table)


@pytest.mark.parametrize("x", [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.0**-100, -(2.0**-100),
    np.nextafter(2.0**-100, 0), 1e16, np.nextafter(1e16, 0), 9999999999999998.0,
    9.9999999999999998e-13, 1e-12, 1e-5, 1e-4, 1e-3, 0.1, 1.0, 10.0, 1e15, -1e15,
    np.nextafter(1e-4, 0), np.nextafter(1.0, 0), 1.7976931348623157e308,
])
def test_format_rows_special_values(x):
    table = np.array([[x, -x, 1.0], [2.0, x, x]])
    assert textfmt.format_rows(table) == _g17_rows(table)


def test_format_rows_near_powers_of_ten():
    powers = 10.0 ** np.arange(-31, 17)
    near = np.concatenate([powers] + [np.nextafter(powers, to) for to in (0.0, np.inf)])
    for k in range(1, 6):   # a few ulps on both sides
        near = np.concatenate([near, np.nextafter(near, 0.0), np.nextafter(near, np.inf)])
    table = np.concatenate([near, -near]).reshape(-1, 3)
    assert textfmt.format_rows(table) == _g17_rows(table)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (1, 1), (1, 5000), (7, 2048), (3, 1023)])
def test_format_rows_shapes_and_chunk_edges(shape):
    # magnitudes 1e-20 .. 1e19 across the columns
    table = np.random.default_rng(19).normal(size=shape) * 10.0 ** (np.arange(shape[1]) % 40 - 20)
    assert textfmt.format_rows(table) == _g17_rows(table)


def test_format_rows_rejects_non_tables():
    for bad in (np.zeros(3), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError):
            textfmt.format_rows(bad)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=40))
def test_format_rows_matches_g17_on_any_floats(values):
    table = np.array(values, dtype=np.float64).reshape(1, -1)
    assert textfmt.format_rows(table) == _g17_rows(table)
