import math
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from liechan import matcore as mc
from tests.conftest import clifford, g2, maximally_mixed, spin, su

PAULI = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def random_hermitian(d, rng):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


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


def reference_sym_fold(stack, multisets):
    # the per-matrix fold that _sym_fold replaced: the factors in content-key
    # order, one stacked matmul per factor, permutations summed onto zeros
    keys = [m.tobytes() for m in stack]
    factors = np.array([sorted(s, key=keys.__getitem__) for s in multisets], dtype=np.intp)
    r = factors.shape[1]
    total = np.zeros((len(factors),) + stack.shape[1:], dtype=np.complex128)
    for perm in permutations(range(r)):
        acc = stack[factors[:, perm[0]]]
        for i in perm[1:]:
            acc = acc @ stack[factors[:, i]]
        total += acc
    total /= math.factorial(r)
    return total


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize(
    "gens",
    [lambda: su(2), lambda: su(3), lambda: su(4), lambda: su(5), lambda: su(6),
     lambda: spin(2), lambda: spin(3), lambda: spin(7), lambda: spin(15), lambda: g2(),
     lambda: clifford()[0]],
    ids=["su2", "su3", "su4", "su5", "su6", "spin1", "spin3_2", "spin7_2", "spin15_2", "g2",
         "clifford"],
)
def test_sym_monomials_bitwise_equal_to_reference_fold(gens, r):
    mats = gens().generators
    multisets, stack = mc.sym_monomials(mats, r)
    assert stack.tobytes() == reference_sym_fold(np.stack(mats), multisets).tobytes()


@pytest.mark.parametrize("step", [1, 5, 37])
@pytest.mark.parametrize(
    "gens", [lambda: su(3), lambda: g2(), lambda: clifford()[0]], ids=["su3", "g2", "clifford"],
)
def test_rank3_fold_bitwise_equal_to_reference_over_many_slabs(gens, step):
    # a slab of the triple table holds at most as many matrices as the fold
    # has multisets, unless it is one factor's: every step-th multiset, in
    # reverse, leaves fewer than half of the k^3 triples per slab, so the
    # table is built in two slabs or more (mostly one factor each at step 37)
    stack = gens().generators
    k = len(stack)
    multisets = tuple(combinations_with_replacement(range(k), 3))[::-step]
    assert 2 * len(multisets) < k**3
    out = mc._collect(mc._sym_fold(stack, multisets), len(multisets))
    assert out.tobytes() == reference_sym_fold(stack, multisets).tobytes()


# tracemalloc peak of sym_monomials(su(n), 3) in output stacks, as the fold
# through the pair table and one grouped gemm per generator left it
GROUPED_GEMM_FOLD_PEAK = {6: 3.54, 8: 3.31}


@pytest.mark.parametrize("n", sorted(GROUPED_GEMM_FOLD_PEAK))
def test_rank3_fold_peak_within_the_grouped_gemm_fold_peak(n):
    # a whole table of the k^3 ordered triple products would be six output
    # stacks by itself; its slabs keep the peak below the earlier fold's
    stack = su(n).generators
    tracemalloc.start()
    try:
        _, monomials = mc.sym_monomials(stack, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / monomials.nbytes <= GROUPED_GEMM_FOLD_PEAK[n]


def _random_complex(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


@pytest.mark.parametrize("r", [4, 5])
@pytest.mark.parametrize("case", ["repeated", "signed_zeros"])
def test_sym_product_bitwise_equal_to_reference_fold(r, case):
    rng = np.random.default_rng(70 + r)
    ms = [_random_complex(rng, 3) for _ in range(r)]
    if case == "repeated":
        ms[2] = ms[0]
        ms[-1] = ms[0]
    else:
        ms[1] = np.array([[-0.0, 1.0, 0.0], [0.0, -0.0, -1.0], [-0.0, 0.0, 2.0]])
        ms[1] = ms[1] + 1j * np.array([[0.0, -0.0, -0.0], [1.0, 0.0, -0.0], [-0.0, 0.0, -0.0]])
        ms[3] = -0.0 * ms[0]
    ref = reference_sym_fold(np.stack(ms), [tuple(range(r))])[0]
    assert mc.sym_product(ms).tobytes() == ref.tobytes()


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize(
    "gens",
    [lambda: su(3), lambda: spin(3), lambda: g2(), lambda: clifford()[0]],
    ids=["su3", "spin3_2", "g2", "clifford"],
)
def test_sym_monomials_same_bits_on_a_list_and_on_the_stack(gens, r):
    stack = gens().generators
    multisets, from_stack = mc.sym_monomials(stack, r)
    from_list = mc.sym_monomials([np.array(x) for x in stack], r)
    assert from_list[0] == multisets and from_list[1].tobytes() == from_stack.tobytes()


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
    m = random_hermitian(4, rng)
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
        m = random_hermitian(dim, rng)
        coeffs = mc.char_poly_coeffs(m)
        poly = np.array([1.0])
        for lam in np.linalg.eigvalsh(m):
            poly = np.convolve(poly, [1.0, -lam])
        expected = np.array([(-1) ** j * poly[j] for j in range(dim + 1)])
        scale = np.maximum(np.abs(expected), 1.0)
        assert np.max(np.abs(coeffs - expected) / scale) < 1e-7


def _hermitian_stack(d, n, seed):
    rng = np.random.default_rng(seed)
    return np.array([random_hermitian(d, rng) for _ in range(n)])


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
        m = random_hermitian(dim, rng)
        assert abs(mc.hermitian_eigenvalues(m).sum() - np.trace(m).real) < 1e-9


def test_descartes_consistency():
    # all char-poly coefficients nonnegative <=> matrix PSD, on shifted samples
    rng = np.random.default_rng(7)
    for i in range(40):
        m = random_hermitian(4, rng)
        m += rng.uniform(-1.0, 3.0) * np.eye(4)
        coeffs_ok = mc.char_poly_coeffs(m).min() >= -1e-10
        psd = mc.min_eigenvalue(m) >= -1e-8
        if abs(mc.min_eigenvalue(m)) > 1e-7:
            assert coeffs_ok == psd


def test_commutator_spin1():
    j = spin(2).generators
    np.testing.assert_allclose(mc.commutator(j[0], j[1]), 1j * j[2], atol=1e-14)


def test_density_matrix_trace_one():
    rng = np.random.default_rng(8)
    for d in (2, 3, 5):
        rho = mc.random_density(d, rng)
        assert abs(np.trace(rho.matrix) - 1.0) <= 1e-10


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
    rho = maximally_mixed(3)
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


def _newton_loop(c):
    # the per-coefficient Newton loop on c[1..d], c[0] unused
    a = np.empty_like(c)
    a[0] = 1.0
    for k in range(1, len(c)):
        a[k] = sum((-1) ** (q - 1) * c[q] * a[k - q] for q in range(1, k + 1)) / k
    return a


def _char_poly_by_loop(m):
    # the paired power sums one at a time: c_q = sum_ij (P_a)_ij (P_b)_ji with
    # a = ceil(q/2) and b = floor(q/2), each power P_e = m^e formed afresh as
    # the left fold ((m m) m) ..., c_1 the diagonal sum
    m = np.asarray(m, dtype=np.complex128)
    d = m.shape[-1]

    def power(e):
        out = m
        for _ in range(e - 1):
            out = out @ m
        return out

    c = np.empty((d + 1,) + m.shape[:-2])
    c[1] = m.trace(axis1=-2, axis2=-1).real
    for q in range(2, d + 1):
        c[q] = np.einsum("...ij,...ji->...", power((q + 1) // 2), power(q // 2)).real
    return _newton_loop(c)


def _char_poly_by_sequential_powers(m):
    # one power at a time, each trace from the next power m^q = m^(q-1) m
    m = np.asarray(m, dtype=np.complex128)
    d = m.shape[-1]
    c = np.empty((d + 1,) + m.shape[:-2])
    power = np.eye(d, dtype=np.complex128)
    for q in range(1, d + 1):
        power = power @ m
        c[q] = power.trace(axis1=-2, axis2=-1).real
    return _newton_loop(c)


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
def test_char_poly_coeffs_bitwise_equal_to_newton_loop(dim):
    rng = np.random.default_rng(40 + dim)
    stack = np.array([random_hermitian(dim, rng) for _ in range(6)])
    stack[0] = 0.0   # zero power sums: signed zeros must match too
    stack[1] = mc.random_density(dim, rng).matrix
    for m in stack:
        assert mc.char_poly_coeffs(m).tobytes() == _char_poly_by_loop(m).tobytes()
    assert mc.char_poly_coeffs(stack).tobytes() == _char_poly_by_loop(stack).tobytes()


def _unit_frobenius_inputs(d, rng):
    """Random Hermitian matrices, densities of every rank below d and states
    on boundary rays of the spin set of dimension d (least eigenvalue 0 up
    to rounding), each scaled to ||N||_F = 1 as the charpoly oracle reads them."""
    mats = [random_hermitian(d, rng) for _ in range(8)]
    for rank in range(1, d):
        psi = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
        mats.append(psi @ psi.conj().T)
    x = spin(d - 1).generators
    for _ in range(8):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        ux = np.einsum("a,aij->ij", u, x)
        mats.append(np.eye(d) + ux / -np.linalg.eigvalsh(ux)[0])
    stack = np.array(mats, dtype=np.complex128)
    return stack / np.linalg.norm(stack, axis=(1, 2))[:, None, None]


@pytest.mark.parametrize("dim", range(2, 17))
def test_char_poly_coeffs_within_rounding_bound_of_sequential_powers(dim):
    # the paired and the sequential power sums both err by at most d^3 u B
    # (bloch.psd_by_charpoly's derivation, B = max_k |b_k|), so they differ
    # by at most d^3 eps B, the oracle's tolerance
    stack = _unit_frobenius_inputs(dim, np.random.default_rng(60 + dim))
    paired = mc.char_poly_coeffs(stack)
    sequential = _char_poly_by_sequential_powers(stack)
    scale = np.abs(sequential).max(axis=0)
    assert np.all(np.abs(paired - sequential) <= dim ** 3 * np.finfo(float).eps * scale)


@pytest.mark.parametrize("dim", range(2, 17))
def test_char_poly_coeffs_of_one_matrix_bitwise_equal_to_the_stack(dim):
    # one matrix runs the recursion on Python floats, a stack on float64
    # arrays; boundary rays of the spin set included
    stack = _unit_frobenius_inputs(dim, np.random.default_rng(80 + dim))
    coeffs = mc.char_poly_coeffs(stack)
    for j, m in enumerate(stack):
        assert mc.char_poly_coeffs(m).tobytes() == coeffs[:, j].tobytes()


def test_newton_recursion_same_bits_on_floats_fractions_and_arrays():
    # power sums whose left fold loses the small terms: a compensated sum
    # would keep them and differ from the array recursion
    c = [1.0, 1e16, 3.0, -1e16, 0.1, 2e-17, 7.0]
    by_array = mc.newton_recursion(np.array(c)[:, None])
    by_float = mc.newton_recursion(c)
    assert np.array(by_float[1:]).tobytes() == np.concatenate(by_array[1:]).tobytes()
    # on Fractions the same fold is exact: roots 1, 2, 3, 4 give e = 10, 35, 50, 24
    power_sums = [Fraction(sum(x**q for x in (1, 2, 3, 4))) for q in range(1, 5)]
    assert mc.newton_recursion(power_sums) == [1, 10, 35, 50, 24]


def test_newton_recursion_numbers_and_exact_polynomials():
    # roots 1, 2, 3: power sums 6, 14, 36; e = 1, 6, 11, 6
    assert mc.newton_recursion([Fraction(6), Fraction(14), Fraction(36)]) == [1, 6, 11, 6]
    # roots x and 1: p_q = x^q + 1, so e_1 = x + 1 and e_2 = x, exactly
    x = Polynomial([Fraction(0), Fraction(1)])
    a = mc.newton_recursion([x + 1, x**2 + 1])
    assert list(a[1].coef) == [1, 1] and list(a[2].coef) == [0, 1]
    assert all(type(c) is Fraction for c in a[2].coef)
