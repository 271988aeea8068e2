from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from liechan import matcore as mc
from tests.conftest import clifford, g2, spin, su

PAULI = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def test_hermitian_eigenvalues_sorted():
    np.testing.assert_allclose(
        mc.hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0])), [1, 2, 3], atol=1e-12
    )


def test_pauli_spectrum():
    np.testing.assert_allclose(mc.hermitian_eigenvalues(PAULI[0]), [-1, 1], atol=1e-12)


@pytest.mark.parametrize("two_s", [1, 2, 3])
def test_spin_bloch_min_eigenvalue(two_s):
    # min eig of I + v.J is 1 - s ||v|| for the spin-s generators
    g = spin(two_s)
    s = two_s / 2.0
    rng = np.random.default_rng(two_s)
    for _ in range(5):
        v = rng.normal(size=3)
        m = np.eye(g.d) + sum(vi * ji for vi, ji in zip(v, g.generators))
        lo = mc.hermitian_eigenvalues(m)[0]
        assert abs(lo - (1.0 - s * np.linalg.norm(v))) < 1e-9


def test_eigensolver_rejects_non_hermitian():
    with pytest.raises(ValueError):
        mc.hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))


def test_sym_product_single():
    a = np.arange(4, dtype=complex).reshape(2, 2)
    np.testing.assert_array_equal(mc.sym_product([a]), a)


def test_sym_product_pair_spin1():
    j = spin(2).generators
    expected = (j[0] @ j[1] + j[1] @ j[0]) / 2
    np.testing.assert_allclose(mc.sym_product([j[0], j[1]]), expected, atol=1e-15)


def test_sym_product_three_matches_six_term_average():
    rng = np.random.default_rng(2)
    ms = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(3)]
    a, b, c = ms
    expected = (a @ b @ c + a @ c @ b + b @ a @ c + b @ c @ a + c @ a @ b + c @ b @ a) / 6
    np.testing.assert_allclose(mc.sym_product(ms), expected, atol=1e-12)


def test_sym_product_permutation_invariant_exactly():
    rng = np.random.default_rng(3)
    ms = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(3)]
    base = mc.sym_product(ms)
    for perm in [(1, 0, 2), (2, 1, 0), (2, 0, 1)]:
        np.testing.assert_array_equal(base, mc.sym_product([ms[i] for i in perm]))


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize(
    "gens",
    [lambda: su(3), lambda: g2(), lambda: spin(3), lambda: clifford()[0]],
    ids=["su3", "g2", "spin3_2", "clifford"],
)
def test_sym_monomials_bitwise_equal_to_sym_product(gens, r):
    mats = gens().generators
    multisets, stack = mc.sym_monomials(mats, r)
    assert multisets == tuple(combinations_with_replacement(range(len(mats)), r))
    assert stack.shape == (len(multisets),) + mats[0].shape
    for ms, mono in zip(multisets, stack):
        ref = mc.sym_product([mats[i] for i in ms])
        np.testing.assert_array_equal(mono, ref)
        assert mono.tobytes() == ref.tobytes()  # signed zeros included


@pytest.mark.parametrize(
    "mats, r",
    [(PAULI, 0), ([], 2), ([np.eye(2), np.eye(3)], 2)],
    ids=["rank0", "empty", "mixed_shapes"],
)
def test_sym_monomials_rejects_bad_input(mats, r):
    with pytest.raises(ValueError):
        mc.sym_monomials(mats, r)


def test_char_poly_identity_2x2():
    np.testing.assert_allclose(mc.char_poly_coeffs(np.eye(2)), [1, 2, 1], atol=1e-12)


def test_char_poly_diag123():
    np.testing.assert_allclose(
        mc.char_poly_coeffs(np.diag([1.0, 2.0, 3.0])), [1, 6, 11, 6], atol=1e-12
    )


def test_char_poly_matches_eigenvalue_oracle():
    rng = np.random.default_rng(4)
    m = mc.random_hermitian(4, rng)
    coeffs = mc.char_poly_coeffs(m)
    ev = np.linalg.eigvalsh(m)
    # elementary symmetric polynomials from the eigenvalue product
    poly = np.array([1.0])
    for lam in ev:
        poly = np.convolve(poly, [1.0, -lam])
    expected = np.array([(-1) ** j * poly[j] for j in range(5)])
    np.testing.assert_allclose(coeffs, expected, atol=1e-8)


@pytest.mark.parametrize("dim", range(2, 9))
def test_char_poly_random_dims_vs_oracle(dim):
    for i in range(13):
        rng = mc.derived_rng(5, 100 * dim + i)
        m = mc.random_hermitian(dim, rng)
        coeffs = mc.char_poly_coeffs(m)
        poly = np.array([1.0])
        for lam in np.linalg.eigvalsh(m):
            poly = np.convolve(poly, [1.0, -lam])
        expected = np.array([(-1) ** j * poly[j] for j in range(dim + 1)])
        scale = np.maximum(np.abs(expected), 1.0)
        assert np.max(np.abs(coeffs - expected) / scale) < 1e-7


def _hermitian_stack(d, n, seed):
    rng = np.random.default_rng(seed)
    return np.array([mc.random_hermitian(d, rng) for _ in range(n)])


@pytest.mark.parametrize("dim", [2, 3, 7, 8, 16])
def test_char_poly_stack_bitwise_equal_per_matrix(dim):
    stack = _hermitian_stack(dim, 9, dim)
    coeffs = mc.char_poly_coeffs(stack)
    assert coeffs.shape == (dim + 1, 9)
    assert coeffs.tobytes() == np.array([mc.char_poly_coeffs(m) for m in stack]).T.tobytes()
    assert mc.char_poly_coeffs(stack[:1]).tobytes() == mc.char_poly_coeffs(stack[0])[:, None].tobytes()


@pytest.mark.parametrize("entry", [0.5, np.nan, np.inf])
def test_char_poly_stack_checks_every_matrix(entry):
    # one bad matrix in the middle of the stack: non-Hermitian or non-finite
    stack = _hermitian_stack(4, 5, 1)
    stack[2, 0, 1] += entry
    with pytest.raises(ValueError):
        mc.char_poly_coeffs(stack)


@pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 3, 4), (2, 2, 3, 3), ()])
def test_char_poly_rejects_non_square_shapes(shape):
    with pytest.raises(ValueError):
        mc.char_poly_coeffs(np.zeros(shape))


def test_eigenvalue_sum_is_trace():
    rng = np.random.default_rng(6)
    for dim in (2, 5, 8):
        m = mc.random_hermitian(dim, rng)
        assert abs(mc.hermitian_eigenvalues(m).sum() - np.trace(m).real) < 1e-9


def test_descartes_consistency():
    # all char-poly coefficients nonnegative <=> matrix PSD, on shifted samples
    rng = np.random.default_rng(7)
    for i in range(40):
        m = mc.random_hermitian(4, rng)
        m += rng.uniform(-1.0, 3.0) * np.eye(4)
        coeffs_ok = mc.char_poly_coeffs(m).min() >= -1e-10
        psd = mc.min_eigenvalue(m) >= -1e-8
        if abs(mc.min_eigenvalue(m)) > 1e-7:
            assert coeffs_ok == psd


def test_anticommutator_pauli():
    np.testing.assert_allclose(mc.anticommutator(PAULI[0], PAULI[0]), 2 * np.eye(2), atol=1e-15)


def test_commutator_spin1():
    j = spin(2).generators
    np.testing.assert_allclose(mc.commutator(j[0], j[1]), 1j * j[2], atol=1e-14)


def test_density_matrix_trace_one():
    rng = np.random.default_rng(8)
    for d in (2, 3, 5):
        rho = mc.random_density(d, rng)
        assert abs(mc.trace(rho.matrix) - 1.0) <= 1e-10


@pytest.mark.parametrize(
    "bad",
    [
        np.array([[1.0, 1.0], [0.0, 0.0]]),          # not Hermitian
        np.diag([0.7, 0.7]),                          # trace != 1
        np.diag([1.5, -0.5]),                         # negative eigenvalue
    ],
)
def test_density_matrix_invalid(bad):
    with pytest.raises(ValueError):
        mc.DensityMatrix(bad.astype(complex))


def test_density_matrix_immutable():
    rho = mc.DensityMatrix.maximally_mixed(3)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 2.0


def test_matrix_json_round_trip():
    rng = np.random.default_rng(9)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    obj = mc.matrix_to_json(m)
    assert obj["dim"] == 3 and len(obj["entries"]) == 9
    np.testing.assert_array_equal(mc.matrix_from_json(obj), m)


@pytest.mark.parametrize(
    "obj",
    [
        [1, 2],
        {"dim": None, "entries": []},
        {"dim": 2.0, "entries": [[1, 0]] * 4},
        {"dim": 2, "entries": None},
        {"dim": 2, "entries": ["ab", "cd", "ef", "gh"]},
        {"dim": 1, "entries": [[1, 0, 0]]},
        {"dim": 1, "entries": [["1", 0]]},
    ],
)
def test_matrix_from_json_rejects_malformed(obj):
    with pytest.raises(ValueError):
        mc.matrix_from_json(obj)


def test_density_json_round_trip():
    rho = mc.random_density(3, np.random.default_rng(10))
    again = mc.DensityMatrix.from_json(rho.to_json())
    np.testing.assert_array_equal(again.matrix, rho.matrix)


# ---------------------------------------------------------------------------
# Shared primitives against the loops they replaced, bit for bit.

def _scatter(multisets, values, k):
    # one assignment per distinct index permutation of each multiset
    out = np.full((k,) * len(multisets[0]), np.nan)
    for ms, value in zip(multisets, values):
        for perm in set(permutations(ms)):
            out[perm] = value
    return out


@pytest.mark.parametrize("k, r", [(3, 1), (4, 2), (5, 3), (8, 3)])
def test_symmetric_tensor_equals_scatter_loop(k, r):
    multisets = tuple(combinations_with_replacement(range(k), r))
    values = np.random.default_rng(k * r).normal(size=len(multisets))
    values[::3] = np.nan
    values[1::5] = -0.0
    t = mc.symmetric_tensor(multisets, values, k)
    assert t.tobytes() == _scatter(multisets, values, k).tobytes()
    for perm in permutations(range(r)):
        np.testing.assert_array_equal(t, t.transpose(perm))


def _char_poly_by_loop(m):
    # the per-coefficient Newton loop char_poly_coeffs ran on its own
    m = np.asarray(m, dtype=np.complex128)
    d = m.shape[-1]
    c = np.empty((d + 1,) + m.shape[:-2])
    power = np.eye(d, dtype=np.complex128)
    for q in range(1, d + 1):
        power = power @ m
        c[q] = power.trace(axis1=-2, axis2=-1).real
    a = np.empty_like(c)
    a[0] = 1.0
    for k in range(1, d + 1):
        a[k] = sum((-1) ** (q - 1) * c[q] * a[k - q] for q in range(1, k + 1)) / k
    return a


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
def test_char_poly_coeffs_bitwise_equal_to_newton_loop(dim):
    rng = np.random.default_rng(40 + dim)
    stack = np.array([mc.random_hermitian(dim, rng) for _ in range(6)])
    stack[0] = 0.0   # zero power sums: signed zeros must match too
    stack[1] = mc.random_density(dim, rng).matrix
    for m in stack:
        assert mc.char_poly_coeffs(m).tobytes() == _char_poly_by_loop(m).tobytes()
    assert mc.char_poly_coeffs(stack).tobytes() == _char_poly_by_loop(stack).tobytes()


def test_newton_recursion_numbers_and_exact_polynomials():
    # roots 1, 2, 3: power sums 6, 14, 36; e = 1, 6, 11, 6
    assert mc.newton_recursion([Fraction(6), Fraction(14), Fraction(36)]) == [1, 6, 11, 6]
    # roots x and 1: p_q = x^q + 1, so e_1 = x + 1 and e_2 = x, exactly
    x = Polynomial([Fraction(0), Fraction(1)])
    a = mc.newton_recursion([x + 1, x**2 + 1])
    assert list(a[1].coef) == [1, 1] and list(a[2].coef) == [0, 1]
    assert all(type(c) is Fraction for c in a[2].coef)
