import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liechan import matcore as mc
from liechan import repgen as rg
from liechan import textfmt
from liechan.cli import main

json_text = textfmt.json_text


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


# ---------------------------------------------------------------------------
# json_text

_SETS = ([["su", "--n", str(n)] for n in range(2, 9)]
         + [["spin", "--two-s", str(t)] for t in (*range(1, 8), 15)] + [["g2"], ["clifford"]])


def _reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


@pytest.fixture
def reports(monkeypatch):
    """The objects every JSON report of cli.main is written from, in call order."""
    seen = []

    def record(obj):
        seen.append(obj)
        return json_text(obj)

    monkeypatch.setattr(textfmt, "json_text", record)
    return seen


def _rho_files(tmp_path, algebra) -> list:
    """A raw matrix, a {v} and, on spin sets with d >= 3, a {v, w} input."""
    g = rg.build_algebra(algebra[0], n=int(algebra[2]) if algebra[0] == "su" else None,
                         two_s=int(algebra[2]) if algebra[0] == "spin" else None)
    rng = np.random.default_rng(g.d)
    inputs = [mc.matrix_to_json(mc.random_density(g.d, rng).matrix),
              {"v": (0.05 * rng.normal(size=g.k) / np.sqrt(g.k)).tolist()}]
    if algebra[0] == "spin" and g.d >= 3:
        lam = (g.d - 1) * (g.d + 1) / 4.0
        inputs.append({"v": (0.01 / g.d * rng.normal(size=3)).tolist(), "w": (np.eye(3) / (g.d * lam)).tolist()})
    paths = []
    for i, obj in enumerate(inputs):
        paths.append(tmp_path / f"rho_{i}.json")
        paths[-1].write_text(json.dumps(obj))
    return paths


@pytest.mark.parametrize("algebra", _SETS, ids=lambda a: "".join(a).replace("--n", "").replace("--two-s", ""))
def test_json_text_equals_indent2_dumps_on_every_report(tmp_path, reports, algebra):
    out = str(tmp_path / "out.json")
    argvs = [["gen"], ["verify"], ["bloch-scan", "--samples", "40", "--format", "json"]]
    argvs += [["critical", "--max-rank", str(r)] for r in (1, 2, 3)]
    argvs += [["apply", "--p", p, "--rho", str(path)]
              for path in _rho_files(tmp_path, algebra) for p in ("0", "0.3", "1")]
    for argv in argvs:
        assert main([argv[0], "--algebra", *algebra, *argv[1:], "--seed", "5", "--out", out]) == 0, argv
    assert len(reports) == len(argvs)
    for obj in reports:
        assert json_text(obj) == _reference(obj)


_SPECIAL_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e22, -1e22])
_NUMBER = st.floats() | _SPECIAL_FLOATS | st.integers() | st.integers(-10**30, 10**30)
_MIXED_NUMBER = _NUMBER | st.booleans() | st.floats().map(np.float64)
_TRICKY_TEXT = st.lists(st.sampled_from(["[", "]", ",", " ", "\0", "\n", '"', "a", "[]", "], [", ", "]),
                        max_size=6).map("".join)
_TABLE = st.lists(_NUMBER, max_size=5) | st.lists(st.lists(_NUMBER, max_size=4), max_size=4)
_LEAF = (_NUMBER | _MIXED_NUMBER | st.none() | _TRICKY_TEXT | _TABLE
         | st.lists(_MIXED_NUMBER, max_size=4) | st.lists(st.lists(_MIXED_NUMBER, max_size=3), max_size=3))
_JSON = st.recursive(
    _LEAF,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(_TRICKY_TEXT, inner, max_size=5),
    max_leaves=25,
)


@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(_JSON)
def test_json_text_equals_indent2_dumps_on_any_json(obj):
    assert json_text(obj) == _reference(obj)


@pytest.mark.parametrize("obj", [
    [], [[]], [[], [1]], [[1], []], [1], [-0.0], [[1, 2], [3, 4]], [[1], [2, 3, 4.5]], {"a": [], "b": [[]]},
    {"[]": ["], [", [1.5, 2]], "x": {"y": [[1e22, 5e-324], [math.nan, -math.inf]]}},
    [[[1, 2]], [[3]]], [(1, 2), (3,)], ((1.0, 2.0),), [True, 1], [[1, 0], [0, False]],
    [np.float64(0.1), 0.2], "[]", 7, None,
])
def test_json_text_equals_indent2_dumps_on_edge_cases(obj):
    assert json_text(obj) == _reference(obj)


def test_json_text_hands_tables_to_the_c_encoder_by_exact_type():
    # a table's every number is an int or a float; a bool or an np.float64
    # leaves its list to the Python encoder, and an empty list is no table
    tables = []
    skeleton = textfmt._skeleton({"a": [1, 2.5], "b": [[1, 2], [3, 4]], "c": [True, 1],
                                  "d": [[1], [False]], "e": [np.float64(1.0)], "f": [], "g": [[], [1]]},
                                 tables)
    assert tables == [[1, 2.5], [[1, 2], [3, 4]], [1], None, None, [1]]
    assert skeleton == {"a": [], "b": [], "c": [True, 1], "d": [[], [False]], "e": [np.float64(1.0)],
                        "f": [], "g": [[], []]}
