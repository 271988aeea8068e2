import copy
import math
import re
import tracemalloc
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from liechan import bloch as bl
from liechan import channel as ch
from liechan import matcore as mc
from liechan import repgen as rg
from tests.conftest import clifford, g2, spin, su, su_tensors


# ---------------------------------------------------------------------------
# Bloch states and membership oracles

def test_bloch_rho_zero_vector():
    g = su(3)
    np.testing.assert_allclose(bl.bloch_rho(g, np.zeros(8)), np.eye(3) / 3.0, atol=1e-15)


def test_bloch_rho_qubit_pure_z():
    g = su(2)
    np.testing.assert_allclose(
        bl.bloch_rho(g, [0.0, 0.0, 1.0]), np.diag([1.0, 0.0]), atol=1e-15
    )


@pytest.mark.parametrize("two_s", [1, 2, 3])
def test_bloch_rho_spin_boundary(two_s):
    g = spin(two_s)
    s = two_s / 2.0
    rng = np.random.default_rng(two_s)
    v = rng.normal(size=3)
    v /= s * np.linalg.norm(v)  # ||v|| = 1/s
    lo = np.linalg.eigvalsh(bl.bloch_rho(g, v))[0]
    assert abs(lo) < 1e-12


def test_bloch_vector_inverts_bloch_rho():
    g = su(3)
    rng = np.random.default_rng(0)
    v = rng.normal(size=8) * 0.4
    np.testing.assert_allclose(bl.bloch_vector(g, bl.bloch_rho(g, v)), v, atol=1e-12)


def test_membership_spin1_radius():
    g = spin(2)
    rng = np.random.default_rng(1)
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    assert bl.membership_eig(g, 0.999 * u)
    assert not bl.membership_eig(g, 1.001 * u)


def test_membership_oracles_agree_su3():
    g = su(3)
    for i, v in enumerate(bl.sample_bloch_vectors(g, 300, seed=2)):
        lo = np.linalg.eigvalsh(bl.bloch_rho(g, v))[0]
        if abs(lo) <= 1e-7:
            continue
        assert bl.membership_eig(g, v) == bl.membership_charpoly(g, v)


def test_membership_oracles_agree_g2():
    g = g2()
    for v in bl.sample_bloch_vectors(g, 150, seed=3):
        lo = np.linalg.eigvalsh(bl.bloch_rho(g, v))[0]
        if abs(lo) <= 1e-7:
            continue
        assert bl.membership_eig(g, v) == bl.membership_charpoly(g, v)


def test_membership_oracles_agree_at_radius_two_su3():
    # beyond the tr(rho^2) bound both oracles must reject
    g = su(3)
    rng = np.random.default_rng(30)
    for _ in range(20):
        v = rng.normal(size=8)
        v *= 2.0 / np.linalg.norm(v)
        assert bl.membership_eig(g, v) == bl.membership_charpoly(g, v) == False  # noqa: E712


BOUNDARY_SETS = {
    "su3": lambda: su(3), "su6": lambda: su(6), "su8": lambda: su(8),
    "spin3_2": lambda: spin(3), "spin7_2": lambda: spin(7), "g2": g2,
}


def boundary_rays(g, delta, count=100):
    # v = r(u) (1 + delta) u with r(u) = -1/lambda_min(u.X): rho(v) has least
    # eigenvalue -delta/d, outside the manifold for delta > 0 and inside for
    # delta < 0, however close to the boundary
    x = np.stack(g.generators)
    rng = np.random.default_rng(40)
    out = np.empty((count, g.k))
    for i in range(count):
        u = rng.normal(size=g.k)
        u /= np.linalg.norm(u)
        r = -1.0 / np.linalg.eigvalsh(np.einsum("a,aij->ij", u, x))[0]
        out[i] = r * (1.0 + delta) * u
    return out


@pytest.mark.parametrize("delta", [1e-3, -1e-3, 1e-6, -1e-6])
@pytest.mark.parametrize("name", sorted(BOUNDARY_SETS))
def test_membership_oracles_agree_on_boundary_rays(name, delta):
    g = BOUNDARY_SETS[name]()
    for v in boundary_rays(g, delta):
        assert bl.membership_eig(g, v) == bl.membership_charpoly(g, v) == (delta < 0)


STACK_SETS = {
    "su3": lambda: su(3), "spin3_2": lambda: spin(3), "g2": g2, "su8": lambda: su(8),
    "clifford": lambda: clifford()[0],
}


def stack_inputs(g):
    """Ball samples plus boundary rays on both sides at 1e-3 and 1e-6."""
    parts = [bl.sample_bloch_vectors(g, 40, seed=8)]
    parts += [boundary_rays(g, delta, 15) for delta in (1e-3, -1e-3, 1e-6, -1e-6)]
    return np.concatenate(parts)


@pytest.mark.parametrize("name", sorted(STACK_SETS))
def test_stacked_oracles_bitwise_equal_per_vector_loop(name):
    g = STACK_SETS[name]()
    vs = stack_inputs(g)
    rho = bl.bloch_rho(g, vs)
    assert rho.shape == (len(vs), g.d, g.d)
    assert rho.tobytes() == np.array([bl.bloch_rho(g, v) for v in vs]).tobytes()
    coeffs = mc.char_poly_coeffs(rho)
    assert coeffs.shape == (g.d + 1, len(vs))
    assert coeffs.tobytes() == np.array([mc.char_poly_coeffs(m) for m in rho]).T.tobytes()
    oracles = [bl.membership_eig, bl.membership_charpoly]
    if name == "su3":
        oracles.append(lambda g, v: bl.su3_membership_closed(v))
    for oracle in oracles:
        flags = oracle(g, vs)
        assert flags.dtype == bool and flags.shape == (len(vs),)
        assert flags.tolist() == [oracle(g, v) for v in vs]
        assert flags[-15:].all() and not flags[-60:-45].any()  # the -1e-6 and +1e-3 rays


def reference_bloch_rho(g, v):
    """(I + sum_i v_i X_i)/d summed densely over every generator, in index
    order; for an (n, k) stack each v_i is an (n, 1, 1) column."""
    v = np.asarray(v, dtype=float)
    columns = v if v.ndim == 1 else v.T[:, :, None, None]
    acc = np.eye(g.d, dtype=np.complex128)
    for vi, x in zip(columns, g.generators):
        acc = acc + vi * x
    return acc / g.d


def rotated_su3():
    """su(3) conjugated by a random unitary: every entry of every generator
    is nonzero."""
    q, _ = np.linalg.qr(np.random.default_rng(4).normal(size=(3, 3, 2)).view(complex)[..., 0])
    g = rg.GeneratorSet.from_generators([q @ x @ q.conj().T for x in su(3).generators])
    assert len(g.nonzero_terms[2]) == g.k   # a slot per generator: the dense sum
    return g


@pytest.mark.parametrize("name", sorted(STACK_SETS) + ["rotated_su3"])
def test_bloch_rho_bitwise_equal_to_dense_sum(name):
    g = rotated_su3() if name == "rotated_su3" else STACK_SETS[name]()
    vs = stack_inputs(g)
    vs[::5] *= -1.0
    vs[1] = 0.0
    vs[2, ::2] = -0.0          # signed zeros in the sum must match too
    vs[3] *= 1e-300            # products that underflow to +-0
    assert bl.bloch_rho(g, vs).tobytes() == reference_bloch_rho(g, vs).tobytes()
    for v in vs:   # the one-vector path
        assert bl.bloch_rho(g, v).tobytes() == reference_bloch_rho(g, v).tobytes()


@pytest.mark.parametrize("name", sorted(STACK_SETS) + ["rotated_su3"])
def test_psd_rules_on_one_input_equal_the_stacked_row(name):
    g = rotated_su3() if name == "rotated_su3" else STACK_SETS[name]()
    rho = bl.bloch_rho(g, stack_inputs(g))
    ev = np.linalg.eigvalsh(rho)
    for rule, stacked_input in ((bl.psd_by_eigenvalues, ev), (bl.psd_by_charpoly, rho)):
        flags = rule(stacked_input)
        assert flags.dtype == bool and flags.shape == (len(rho),)
        ones = [rule(x) for x in stacked_input]
        assert all(type(flag) is bool for flag in ones)
        assert ones == flags.tolist()


def test_nonzero_terms_cover_every_nonzero_component_once():
    g = g2()
    order, base, sizes, gens, coefs = g.nonzero_terms
    assert g.nonzero_terms is g.nonzero_terms   # built once per set
    flat = np.stack(g.generators).reshape(g.k, -1).view(float)
    assert gens.shape == coefs.shape == (len(sizes), sizes[0])   # the components some generator is nonzero on
    assert gens.flags.c_contiguous and coefs.flags.c_contiguous
    comps = [[] for _ in range(flat.shape[1])]
    sorted_comps = np.argsort(order)
    for m, gens_t, coefs_t in zip(sizes, gens, coefs):
        for c, i, x in zip(sorted_comps[:m], gens_t[:m], coefs_t[:m]):
            comps[c].append((i, x))
        # the pads: generator 0 with the value +0.0 exactly
        assert gens_t[m:].tolist() == [0] * (len(gens_t) - m)
        assert coefs_t[m:].tobytes() == np.zeros(len(coefs_t) - m).tobytes()
    assert comps == [[(i, flat[i, c]) for i in np.flatnonzero(flat[:, c])] for c in range(flat.shape[1])]
    assert base[order].tolist() == np.eye(g.d, dtype=complex).reshape(-1).view(float).tolist()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_oracles_reject_non_finite_coefficients(bad):
    g = su(3)
    for v in (np.array([bad] + [0.0] * 7), np.zeros((3, 8))):
        v[..., 0] = bad
        for call in (lambda: bl.bloch_rho(g, v), lambda: bl.membership_eig(g, v),
                     lambda: bl.membership_charpoly(g, v), lambda: bl.su3_membership_closed(v)):
            with pytest.raises(ValueError, match="finite"):
                call()


@pytest.mark.parametrize("name", sorted(STACK_SETS))
def test_oracles_return_python_bool_for_one_vector(name):
    g = STACK_SETS[name]()
    v = stack_inputs(g)[0]
    assert type(bl.membership_eig(g, v)) is bool
    assert type(bl.membership_charpoly(g, v)) is bool
    if name == "su3":
        assert type(bl.su3_membership_closed(v)) is bool


@pytest.mark.parametrize("shape", [(7,), (9,), (2, 7), (2, 9), (2, 3, 8), (), (0,)])
def test_oracles_reject_coefficients_of_the_wrong_shape(shape):
    g = su(3)
    v = np.zeros(shape)
    for call in (lambda: bl.bloch_rho(g, v), lambda: bl.membership_eig(g, v),
                 lambda: bl.membership_charpoly(g, v), lambda: bl.su3_membership_closed(v)):
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("build, n, limit", [
    (lambda: spin(63), 200, 3.02), (lambda: su(8), 2000, 3.12),
], ids=["spin63", "su8"])
def test_psd_by_charpoly_peak_memory_in_rho_stacks(build, n, limit):
    # tracemalloc peak of one call over a stack of n rho(v), in units of that
    # stack: the scaled copy, the Hermitian check's two temporaries, or the
    # scaled copy with two powers; the one-power-at-a-time loop peaked at
    # 3.017 (d = 64) and 3.119 (d = 8)
    g = build()
    rho = bl.bloch_rho(g, bl.sample_bloch_vectors(g, n, seed=4))
    bl.psd_by_charpoly(rho)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        bl.psd_by_charpoly(rho)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / rho.nbytes <= limit


def test_membership_charpoly_accepts_pure_su_n_states():
    # d*rho has eigenvalue d on a pure state; the recursion must not turn
    # the d - 1 zero eigenvalues into a rejection
    for n in (2, 3, 6, 8):
        g = su(n)
        rng = np.random.default_rng(41)
        for _ in range(200):
            psi = mc.random_pure_statevector(n, rng)
            assert bl.membership_charpoly(g, bl.bloch_vector(g, np.outer(psi, psi.conj())))


def test_charpoly_a2_equals_norm_condition():
    # a_2 >= 0 is exactly v^2 <= n(n-1)/2 for the su(n) Bloch state
    g = su(3)
    rng = np.random.default_rng(4)
    for _ in range(100):
        v = rng.normal(size=8) * rng.uniform(0.0, 1.0)
        coeffs = mc.char_poly_coeffs(bl.bloch_rho(g, v))
        assert (coeffs[2] >= -1e-12) == (v @ v <= 3.0 + 1e-9)


# ---------------------------------------------------------------------------
# Norm bounds

def test_norm_bound_su_n():
    for n in (2, 3, 4, 5):
        assert bl.norm_bound(su(n)) == pytest.approx(n * (n - 1) / 2.0)


def test_norm_bound_g2():
    bound = bl.norm_bound(g2())
    assert bound == pytest.approx(84.0)
    assert math.sqrt(bound) == pytest.approx(2.0 * math.sqrt(21.0))


def test_norm_bound_spin_half_matches_manifold_radius():
    # with tr(J_a J_b) = (1/2) delta the bound (d-1)/N = 4 is tight: the
    # spin-1/2 manifold is the ball of radius 1/s = 2
    g = spin(1)
    assert bl.norm_bound(g) == pytest.approx(4.0)
    rng = np.random.default_rng(5)
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    assert bl.membership_eig(g, 1.999 * u)
    assert not bl.membership_eig(g, 2.001 * u)


def test_members_respect_norm_bound():
    for g in (su(3), spin(2), g2()):
        bound = bl.norm_bound(g)
        for v in bl.sample_bloch_vectors(g, 100, seed=6):
            if bl.membership_eig(g, v):
                assert v @ v <= bound + 1e-8


# ---------------------------------------------------------------------------
# su(3) closed form

def test_su3_closed_form_origin():
    assert bl.su3_membership_closed(np.zeros(8))


def test_su3_closed_form_agrees_with_eigenvalues():
    g = su(3)
    t = su_tensors(3)
    for i in range(400):
        rng = mc.derived_rng(7, i)
        v = rng.normal(size=8)
        v *= rng.uniform(0.0, 2.0) / np.linalg.norm(v) * np.sqrt(3.0)
        lo = np.linalg.eigvalsh(bl.bloch_rho(g, v))[0]
        if abs(lo) <= 1e-7:
            continue
        assert bl.su3_membership_closed(v, t) == bl.membership_eig(g, v)


def test_su3_determinant_identity():
    g = su(3)
    t = su_tensors(3)
    rng = np.random.default_rng(8)
    for _ in range(20):
        v = rng.normal(size=8)
        direct = np.linalg.det(sum(vi * x for vi, x in zip(v, g.generators))).real
        tensor = (2.0 / 3.0) * np.einsum("ijk,i,j,k->", t.d_sym, v, v, v)
        assert abs(direct - tensor) < 1e-9


def _su3_closed_by_einsum(v, t):
    # the one four-operand einsum su3_membership_closed contracted before
    det = (2.0 / 3.0) * np.einsum("ijk,...i,...j,...k->...", t.d_sym, v, v, v)
    vv = np.einsum("...i,...i->...", v, v)
    return (vv <= 3.0 + bl.MEMBERSHIP_TOL) & (vv <= 1.0 + det + bl.MEMBERSHIP_TOL)


def test_su3_staged_contraction_flags_equal_einsum():
    g, t = su(3), su_tensors(3)
    vs = np.concatenate([bl.sample_bloch_vectors(g, 2000, seed=12),
                         boundary_rays(g, 1e-6), boundary_rays(g, -1e-6)])
    expect = _su3_closed_by_einsum(vs, t)
    assert expect[-100:].all() and not expect[-200:-100].any()
    for flags in (bl.su3_membership_closed(vs), bl.su3_membership_closed(vs, t)):
        assert flags.tolist() == expect.tolist()
    for v, e in zip(vs[::25], expect[::25]):
        assert bl.su3_membership_closed(v) is bool(e)
        assert bl.su3_membership_closed(v, t) is bool(e)


# ---------------------------------------------------------------------------
# (v, w) parameterization

def test_spin1_pair_trace_value():
    # tr(J_(1 J_2))^2 = 1/2 for spin 1, fixing the extraction normalization
    j = spin(2).generators
    pair = mc.sym_product([j[0], j[1]])
    assert np.trace(pair @ pair).real == pytest.approx(0.5)


def test_spin1_extraction_coefficients():
    # v_a = tr(rho J_a)/2 and w_jk = tr(rho J_(j J_k)) - delta_jk/2
    g = spin(2)
    rng = np.random.default_rng(10)
    rho = mc.random_density(3, rng).matrix
    v, w = bl.extract_vw(rho, spin(2))
    for a in range(3):
        assert v[a] == pytest.approx(0.5 * np.trace(rho @ g.generators[a]).real, abs=1e-12)
        for b in range(3):
            pair = mc.sym_product([g.generators[a], g.generators[b]])
            expect = np.trace(rho @ pair).real - 0.5 * (a == b)
            assert w[a, b] == pytest.approx(expect, abs=1e-12)


def test_rho_vw_round_trip_spin1():
    rng = np.random.default_rng(11)
    base = np.eye(3) / 6.0
    dw = rng.normal(size=(3, 3)) * 0.05
    dw = (dw + dw.T) / 2.0
    dw -= np.eye(3) * np.trace(dw) / 3.0
    v = rng.normal(size=3) * 0.05
    w = base + dw
    v2, w2 = bl.extract_vw(bl.rho_vw(spin(2), v, w), spin(2))
    np.testing.assert_allclose(v2, v, atol=1e-10)
    np.testing.assert_allclose(w2, w, atol=1e-10)


def test_rho_vw_trace_precondition():
    with pytest.raises(ValueError):
        bl.rho_vw(spin(2), np.zeros(3), np.eye(3))


def test_extract_vw_rejects_spin_half():
    with pytest.raises(ValueError):
        bl.extract_vw(np.eye(2) / 2.0, spin(1))


def test_extract_vw_spin32_outside_span():
    rho = mc.random_density(4, np.random.default_rng(12)).matrix
    with pytest.raises(bl.SpanDeficientError):
        bl.extract_vw(rho, spin(3))


def test_extract_vw_spin32_inside_span():
    rng = np.random.default_rng(13)
    d, lam = 4, 15.0 / 4.0
    base = np.eye(3) / (d * lam)
    dw = rng.normal(size=(3, 3)) * 0.02
    dw = (dw + dw.T) / 2.0
    dw -= np.eye(3) * np.trace(dw) / 3.0
    v = rng.normal(size=3) * 0.02
    rho = bl.rho_vw(spin(3), v, base + dw)
    v2, w2 = bl.extract_vw(rho, spin(3))
    np.testing.assert_allclose(v2, v, atol=1e-10)
    np.testing.assert_allclose(w2, base + dw, atol=1e-10)


# ---------------------------------------------------------------------------
# Decomposition into symmetrized monomials

def test_decompose_uniform_state_all_zero():
    g = spin(2)
    state = bl.decompose_density(np.eye(3) / 3.0, g, max_rank=2)
    assert mc.max_abs(state.v) < 1e-12
    assert mc.max_abs(state.w) < 1e-10
    assert state.residual < 1e-12


def test_decompose_spin1_rank2_suffices():
    g = spin(2)
    rho = mc.random_density(3, np.random.default_rng(14)).matrix
    state = bl.decompose_density(rho, g, max_rank=2)
    assert state.residual < 1e-9
    np.testing.assert_allclose(bl.reconstruct(state, g), rho, atol=1e-9)


def test_decompose_spin32_needs_rank3():
    g = spin(3)
    rho = mc.random_density(4, np.random.default_rng(15)).matrix
    with pytest.raises(bl.SpanDeficientError):
        bl.decompose_density(rho, g, max_rank=2)
    state = bl.decompose_density(rho, g, max_rank=3)
    assert state.residual < 1e-8
    np.testing.assert_allclose(bl.reconstruct(state, g), rho, atol=1e-8)


def test_decompose_su3_rank1_suffices():
    g = su(3)
    rho = mc.random_density(3, np.random.default_rng(16)).matrix
    state = bl.decompose_density(rho, g, max_rank=1)
    assert state.residual < 1e-10
    np.testing.assert_allclose(bl.reconstruct(state, g), rho, atol=1e-10)


def test_decompose_tensors_symmetric():
    g = spin(2)
    rho = mc.random_density(3, np.random.default_rng(17)).matrix
    state = bl.decompose_density(rho, g, max_rank=2)
    assert mc.max_abs(state.w - state.w.T) < 1e-14


# ---------------------------------------------------------------------------
# Pure states

def test_pure_bloch_qubit_boundary():
    g = su(2)
    rng = np.random.default_rng(18)
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    assert bl.pure_bloch_test(g, u)
    assert not bl.pure_bloch_test(g, 0.9 * u)


def test_pure_bloch_su3_projector():
    g = su(3)
    v = bl.bloch_vector(g, np.diag([1.0, 0.0, 0.0]).astype(complex))
    assert bl.pure_bloch_test(g, v)
    rho = bl.bloch_rho(g, v)
    assert mc.max_abs(rho @ rho - rho) < 1e-12


def test_pure_bloch_origin_not_pure():
    assert not bl.pure_bloch_test(su(3), np.zeros(8))


def test_pure_bloch_equiv_purity_sampled():
    g = su(3)
    t = su_tensors(3)
    for i in range(100):
        rng = mc.derived_rng(19, i)
        if i % 2 == 0:
            v = rng.normal(size=8) * rng.uniform(0.0, 1.8)
        else:
            psi = mc.random_pure_statevector(3, rng)
            v = bl.bloch_vector(g, np.outer(psi, psi.conj()))
        rho = bl.bloch_rho(g, v)
        is_pure = mc.max_abs(rho @ rho - rho) <= 1e-9
        assert bl.pure_bloch_test(g, v, t) == is_pure


def test_pure_bloch_requires_su_defining():
    with pytest.raises(ValueError):
        bl.pure_bloch_test(spin(2), np.zeros(3))


def test_s_basis_and_unitary():
    s = bl.spin1_s_basis()
    j = spin(2).generators
    u = bl.s_to_j_unitary()
    assert mc.max_abs(u @ u.conj().T - np.eye(3)) < 1e-12
    for sa, ja in zip(s, j):
        assert mc.max_abs(sa - u @ ja @ u.conj().T) < 1e-12


def test_spin1_pure_family_quarter_point():
    p = bl.spin1_pure_family(0.25, 0.25)
    a = np.array([1.0 / math.sqrt(2.0), 0.5, 0.5])
    np.testing.assert_allclose(p, np.outer(a, a), atol=1e-12)
    assert mc.max_abs(p @ p - p) < 1e-12
    assert np.trace(p).real == pytest.approx(1.0)


def test_spin1_pure_family_sign_patterns():
    for signs in ((1, 1, 1), (1, -1, 1), (-1, 1, -1), (1, 1, -1)):
        p = bl.spin1_pure_family(0.2, 0.1, signs=signs)
        assert mc.max_abs(p @ p - p) < 1e-12
        assert abs(np.trace(p).real - 1.0) < 1e-12


def test_spin1_pure_family_triangle_constraint():
    with pytest.raises(ValueError):
        bl.spin1_pure_family(0.5, 0.25)
    with pytest.raises(ValueError):
        bl.spin1_pure_family(-0.2, 0.1)


def test_spin1_pure_family_w_recovered():
    # w = delta/2 - P reproduces the input (w22, w33) for real states
    w22, w33 = 0.3, 0.05
    p = bl.spin1_pure_family(w22, w33)
    w = 0.5 * np.eye(3) - p.real
    assert w[1, 1] == pytest.approx(w22, abs=1e-12)
    assert w[2, 2] == pytest.approx(w33, abs=1e-12)


def test_spin1_pure_omega_family():
    for omega in np.linspace(-0.49, 0.49, 50):
        p = bl.spin1_pure_omega(float(omega))
        assert mc.max_abs(p @ p - p) < 1e-10
        assert abs(np.trace(p).real - 1.0) < 1e-12
    with pytest.raises(ValueError):
        bl.spin1_pure_omega(0.5)


def test_pure_from_psi_real_state():
    v, _ = bl.pure_from_psi(np.array([0.6, 0.8, 0.0], dtype=complex))
    np.testing.assert_allclose(v, np.zeros(3), atol=1e-15)


def test_pure_from_psi_maximal_v():
    v, _ = bl.pure_from_psi(np.array([1.0, 1j, 0.0]) / math.sqrt(2.0))
    np.testing.assert_allclose(v, [0.0, 0.0, 0.5], atol=1e-12)


def test_pure_from_psi_reconstruction():
    for i in range(50):
        psi = mc.random_pure_statevector(3, mc.derived_rng(20, i))
        v, w = bl.pure_from_psi(psi)
        assert np.linalg.norm(v) <= 0.5 + 1e-12
        rho = bl.rho_vw_s_basis(v, w)
        assert mc.max_abs(rho - np.outer(psi, psi.conj())) < 1e-9


@pytest.mark.parametrize("v, w, match", [
    ([np.nan, 0.0, 0.0], np.eye(3) / 6.0, "finite"),
    ([0.0, 0.0, 0.0], np.diag([np.inf, 0.25, 0.25]), "finite"),
    ([0.0, 0.0], np.eye(3) / 6.0, "3-vector"),
    ([0.0, 0.0, 0.0], np.eye(2) / 4.0, "3-vector"),
    ([0.0, 0.0, 0.0], np.eye(3) / 6.0 + np.triu(np.ones((3, 3)), 1) * 0.1, "symmetric"),
    ([0.0, 0.0, 0.0], np.eye(3) / 4.0, "tr\\(w\\)"),
])
def test_rho_vw_s_basis_checks_its_input(v, w, match):
    with pytest.raises(ValueError, match=match):
        bl.rho_vw_s_basis(v, w)


@pytest.mark.parametrize("scale", [1.0, 1.0 - 9e-11, 1.0 + 9e-11])
def test_pure_from_psi_meets_the_s_basis_trace(scale):
    for i in range(20):
        psi = mc.random_pure_statevector(3, mc.derived_rng(21, i)) * scale
        v, w = bl.pure_from_psi(psi)
        assert abs(np.trace(w) - 0.5) < 1e-15
        rho = bl.rho_vw_s_basis(v, w)
        assert mc.max_abs(rho - np.outer(psi, psi.conj()) / scale ** 2) < 1e-9


def test_pure_from_psi_norm_check():
    with pytest.raises(ValueError):
        bl.pure_from_psi(np.array([1.0, 1.0, 0.0], dtype=complex))


# ---------------------------------------------------------------------------
# g2 trace identities and radius bounds

def test_g2_trace_identities_measured():
    # odd powers vanish; tr (v.b)^2 = v^2/2; the quartic trace comes out as
    # v^4/16 (the ratio that also reproduces the closed-form radius chain)
    g = g2()
    stack = np.stack(g.generators)
    for i in range(100):
        rng = mc.derived_rng(21, i)
        v = rng.normal(size=14)
        x = float(v @ v)
        vb = np.einsum("a,aij->ij", v, stack)
        p2 = vb @ vb
        p3 = p2 @ vb
        p4 = p2 @ p2
        p5 = p4 @ vb
        assert abs(np.trace(vb).real) < 1e-9
        assert abs(np.trace(p3).real) < 1e-9 * max(1.0, x**1.5)
        assert abs(np.trace(p5).real) < 1e-8 * max(1.0, x**2.5)
        assert abs(np.trace(p2).real - x / 2.0) < 1e-9
        assert abs(np.trace(p4).real - x * x / 16.0) < 1e-8 * max(1.0, x * x)


def test_g2_bound_chain_closed_form():
    bounds = bl.g2_bound_refine(g2())
    assert [b.coefficient_index for b in bounds] == [2, 3, 4]
    assert bounds[0].v_squared_bound == pytest.approx(84.0, abs=1e-12)
    assert bounds[1].v_squared_bound == pytest.approx(28.0, abs=1e-12)
    assert bounds[2].v_squared_bound == pytest.approx(80.0 - 8.0 * math.sqrt(65.0), abs=1e-9)
    assert bounds[2].v_bound == pytest.approx(3.937, abs=1e-3)


def test_g2_trace_forms_are_exact():
    forms = bl.g2_trace_forms(g2())
    assert (forms.kappa2, forms.kappa4) == (Fraction(1, 2), Fraction(1, 16))
    assert type(forms.kappa2) is Fraction and type(forms.kappa4) is Fraction
    assert max(forms.odd, forms.quadratic, forms.quartic) < 1e-14


def _g2_trace_forms_reference(g, kappa2, kappa4):
    # the forms as first written: .real views of the complex quartic product,
    # the six orderings added by sum()
    x, k = g.generators, g.k
    pairs = x[:, None] @ x
    gram = np.trace(pairs, axis1=2, axis2=3).real
    quartic = (pairs.reshape(k * k, -1) @ pairs.transpose(0, 1, 3, 2).reshape(k * k, -1).T).real
    quartic[::k + 1, ::k + 1] -= float(kappa4)
    quartic = quartic.reshape((k,) * 4)
    return (mc.max_abs(x + x.transpose(0, 2, 1)),
            mc.max_abs(gram - float(kappa2) * np.eye(k)),
            mc.max_abs(sum(quartic.transpose(0, *p) for p in permutations((1, 2, 3))) / 6.0))


def _rotated_g2(seed):
    # g2 in a random real orthonormal basis of C^7 (a copy skips the
    # constructor's checks); its trace forms are g2's, its rounding is not
    g = g2()
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(7, 7)))
    rotated = copy.copy(g)
    object.__setattr__(rotated, "generators", q.T @ g.generators @ q)
    return rotated


@pytest.mark.parametrize("seed", [None, 0, 1, 2, 3])
def test_g2_trace_forms_bitwise_equal_to_summed_orderings(seed):
    g = g2() if seed is None else _rotated_g2(seed)
    forms = bl.g2_trace_forms(g)
    expect = _g2_trace_forms_reference(g, forms.kappa2, forms.kappa4)
    assert (forms.odd, forms.quadratic, forms.quartic) == expect


def test_g2_trace_forms_peak_memory_in_quartic_tables():
    # tracemalloc peak in units of the real 14^4 table Q_abcd: the complex
    # product held through .real and sum()'s fresh array per ordering peaked
    # at 4.5; one real copy and in-place sums peak at 3.5
    g = g2()
    bl.g2_trace_forms(g)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        bl.g2_trace_forms(g)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / (14 ** 4 * 8) <= 4.0


def test_g2_bound_refine_draws_no_random_number(monkeypatch):
    def no_rng(*args, **kwargs):
        raise AssertionError("g2_bound_refine drew a random number")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    bounds = bl.g2_bound_refine(g2())
    # the values of the sampled-ratio version, bit for bit
    assert [b.v_squared_bound for b in bounds] == [84.0, 28.0, 15.501938013611609]
    assert [b.v_bound for b in bounds] == [math.sqrt(84.0), math.sqrt(28.0), math.sqrt(15.501938013611609)]


def test_g2_a4_sign_flip_matches_bound():
    # the characteristic-polynomial coefficient computed from the actual
    # matrices changes sign exactly at the closed-form radius
    g = g2()
    bound = bl.g2_bound_refine(g)[2].v_squared_bound
    rng = np.random.default_rng(22)
    u = rng.normal(size=14)
    u /= np.linalg.norm(u)
    for x, expect_sign in ((bound - 0.2, 1.0), (bound + 0.2, -1.0)):
        rho = bl.bloch_rho(g, math.sqrt(x) * u)
        a4 = mc.char_poly_coeffs(rho)[4]
        assert np.sign(a4) == expect_sign


def test_sample_bloch_vectors_deterministic():
    g = su(3)
    a = bl.sample_bloch_vectors(g, 10, seed=23)
    b = bl.sample_bloch_vectors(g, 10, seed=23)
    np.testing.assert_array_equal(a, b)


SAMPLER_SETS = {
    "su2": lambda: su(2), "su3": lambda: su(3), "spin3_2": lambda: spin(3), "g2": g2,
    "su8": lambda: su(8),
}


@pytest.mark.parametrize("name", sorted(SAMPLER_SETS))
def test_sample_bloch_vectors_prefix_is_the_shorter_draw(name):
    g = SAMPLER_SETS[name]()
    whole = bl.sample_bloch_vectors(g, 300, seed=12)
    for m in (1, 2, 99, 100, 299):
        assert bl.sample_bloch_vectors(g, m, seed=12).tobytes() == whole[:m].tobytes()


@pytest.mark.parametrize("name", sorted(SAMPLER_SETS))
def test_sample_bloch_vectors_stay_in_the_bounding_ball(name):
    g = SAMPLER_SETS[name]()
    vs = bl.sample_bloch_vectors(g, 2000, seed=13)
    assert vs.shape == (2000, g.k)
    assert (np.linalg.norm(vs, axis=1) <= math.sqrt(bl.norm_bound(g))).all()


@pytest.mark.parametrize("name", sorted(SAMPLER_SETS))
def test_sample_bloch_vectors_are_uniform_in_the_ball(name):
    # uniform in the k-ball of radius R: (|v|/R)^k is uniform on [0, 1]
    # (mean 1/2, sd 1/sqrt(12)), and each coordinate has mean 0 and
    # sd R/sqrt(k + 2)
    g = SAMPLER_SETS[name]()
    n = 20_000
    radius = math.sqrt(bl.norm_bound(g))
    vs = bl.sample_bloch_vectors(g, n, seed=14)
    volume_fraction = (np.linalg.norm(vs, axis=1) / radius) ** g.k
    assert abs(volume_fraction.mean() - 0.5) <= 5.0 / math.sqrt(12 * n)
    assert np.abs(vs.mean(axis=0)).max() <= 5.0 * radius / math.sqrt((g.k + 2) * n)


def test_spin_vw_purity_search_spin1_finds_pure():
    # spin-1: pure states exist in the (v, w) span, so the residual is tiny
    best = bl.spin_vw_purity_search(spin(2))
    assert best < 1e-3


def test_spin_vw_purity_search_spin32_stays_large():
    # observed empirically: no (v, w) state of spin 3/2 gets close to pure
    best = bl.spin_vw_purity_search(spin(3))
    assert best > 1e-3


# ---------------------------------------------------------------------------
# The shared fill, contraction and Newton recursion against the per-term
# loops they replaced, bit for bit.

def _rho_vw_by_loop(gens, v, w):
    acc = np.zeros(gens[0].shape, dtype=np.complex128)
    for a in range(3):
        acc += v[a] * gens[a]
    stack = np.stack(gens)
    prods = stack[:, None] @ stack
    acc += np.einsum("ab,abik->ik", (np.asarray(w) + np.asarray(w).T) / 2.0, prods)
    return acc


def _unit_trace_vw(g, rng):
    dw = rng.normal(size=(3, 3)) * 0.1
    dw = (dw + dw.T) / 2.0
    dw -= np.eye(3) * np.trace(dw) / 3.0
    dw[0, 1] += 1e-12   # within the symmetry tolerance, so only (w + w^T)/2 enters
    return rng.normal(size=3) * 0.1, np.eye(3) / (g.d * g.Z) + dw


@pytest.mark.parametrize("two_s", [1, 2, 3, 7, 63])
def test_rho_vw_bitwise_equal_to_loop(two_s):
    g = spin(two_s)
    rng = np.random.default_rng(60 + two_s)
    draws = [_unit_trace_vw(g, rng) for _ in range(4)]
    for v, w in draws:
        assert bl.rho_vw(g, v, w).tobytes() == _rho_vw_by_loop(g.generators, v, w).tobytes()
    # a stack: every row bitwise the one-input result, signed zeros included
    v, w = map(np.stack, zip(*draws))
    v[0, 1], w[1] = -0.0, np.eye(3) / (g.d * g.Z)
    v[2] = 0.0
    stacked = bl.rho_vw(g, v, w)
    assert stacked.shape == (4, g.d, g.d)
    for i in range(4):
        assert stacked[i].tobytes() == bl.rho_vw(g, v[i], w[i]).tobytes()
    v, w = bl.pure_from_psi(mc.random_pure_statevector(3, rng))
    assert bl.rho_vw_s_basis(v, w).tobytes() == _rho_vw_by_loop(bl.spin1_s_basis(), v, w).tobytes()


def _one_bad_row(kind, g):
    """Four valid (v, w) rows and row 2 made bad by ``kind``."""
    v = np.zeros((4, 3)) + 0.01
    w = np.tile(np.eye(3) / (g.d * g.Z), (4, 1, 1))
    if kind == "non_finite_v":
        v[2, 1] = np.nan
    elif kind == "non_finite_w":
        w[2, 0, 0] = np.inf
    elif kind == "asymmetric":
        w[2, 0, 1] += 1e-9
    elif kind == "trace":
        w[2, 2, 2] += 1e-9
    return v, w


@pytest.mark.parametrize("kind", ["non_finite_v", "non_finite_w", "asymmetric", "trace"])
@pytest.mark.parametrize("check", [ch.spin_vw_input, bl.rho_vw], ids=["spin_vw_input", "rho_vw"])
def test_stacked_vw_input_raises_the_bad_rows_own_message(check, kind):
    g = spin(3)
    v, w = _one_bad_row(kind, g)
    with pytest.raises(ValueError) as alone:
        check(g, v[2], w[2])
    with pytest.raises(ValueError) as stacked:
        check(g, v, w)
    assert str(stacked.value) == str(alone.value)
    for i in (0, 1, 3):
        check(g, v[i], w[i])   # the other rows pass alone


@pytest.mark.parametrize("check", [ch.spin_vw_input, bl.rho_vw], ids=["spin_vw_input", "rho_vw"])
def test_stacked_vw_input_of_the_wrong_shape_raises_the_shape_message(check):
    g = spin(3)
    v, w = _one_bad_row(None, g)
    message = "expected a 3-vector v and 3x3 tensor w"
    # rows of the wrong shape, as each such row alone gives it, and stacks that do not pair up
    for bad_v, bad_w in ((np.zeros((4, 4)), w), (v, w[:, :, :2]), (v, w[:3]), (v[:, None], w[:, None]),
                         (v[0], w), (v, w[0])):
        with pytest.raises(ValueError, match=re.escape(message)):
            check(g, bad_v, bad_w)
    with pytest.raises(ValueError, match=re.escape(message)):
        check(g, np.zeros(4), w[0])


def _extract_vw_by_loop(m, g):
    d, lam = g.d, g.Z
    v = np.array([(3.0 / (d * lam)) * np.trace(m @ j).real for j in g.generators])
    trw = 3.0 / (d * lam) * np.trace(m).real
    w = np.empty((3, 3))
    for j in range(3):
        for k in range(j, 3):
            pair = mc.sym_product([g.generators[j], g.generators[k]])
            val = (30.0 / (lam * d * (d * d - 4.0))) * np.trace(m @ pair).real
            if j == k:
                val -= (2.0 * lam + 1.0) / (d * d - 4.0) * trw
            w[j, k] = w[k, j] = val
    return v, w


@pytest.mark.parametrize("two_s", [2, 3, 7])
def test_extract_vw_bitwise_equal_to_pair_loop(two_s):
    g = spin(two_s)
    rng = np.random.default_rng(70 + two_s)
    in_span = bl.rho_vw(g, *_unit_trace_vw(g, rng))
    random = mc.random_density(g.d, rng).matrix
    # the 3 + 6 spin-1 monomials span every 3 x 3 matrix; from d = 4 on a
    # random density lies outside the (v, w) span
    for rho in (in_span, random) if two_s == 2 else (in_span,):
        v, w = bl.extract_vw(rho, g)
        v0, w0 = _extract_vw_by_loop(rho, g)
        assert v.tobytes() == v0.tobytes() and w.tobytes() == w0.tobytes()
    if two_s > 2:
        with pytest.raises(bl.SpanDeficientError):
            bl.extract_vw(random, g)


def _decompose_by_loop(rho, g, max_rank):
    # the scatter loops decompose_density ran per coefficient and monomial
    target = rho - (np.trace(rho) / g.d) * np.eye(g.d)
    monomials = {r: mc.sym_monomials(g.generators, r) for r in range(1, max_rank + 1)}
    keys = [ms for multisets, _ in monomials.values() for ms in multisets]
    a = np.concatenate([stack.reshape(len(stack), -1) for _, stack in monomials.values()]).T.copy()
    coeffs, *_ = np.linalg.lstsq(np.vstack([a.real, a.imag]),
                                 np.concatenate([target.ravel().real, target.ravel().imag]),
                                 rcond=None)
    tensors = {r: np.zeros((g.k,) * r) for r in range(1, max_rank + 1)}
    for ms, c in zip(keys, coeffs):
        perms = set(permutations(ms))
        for perm in perms:
            tensors[len(ms)][perm] = c / len(perms)
    trace_parts = {}
    for r, (multisets, stack) in monomials.items():
        term = np.zeros((g.d, g.d), dtype=np.complex128)
        for ms, mono in zip(multisets, stack):
            term += tensors[r][ms] * len(set(permutations(ms))) * mono
        trace_parts[r] = float(np.trace(term).real / g.d)
    return tensors, trace_parts


@pytest.mark.parametrize("build, max_rank", [
    (lambda: spin(2), 2), (lambda: spin(3), 3), (lambda: su(3), 1), (lambda: su(3), 3),
], ids=["spin1_r2", "spin3_2_r3", "su3_r1", "su3_r3"])
def test_decompose_density_tensors_bitwise_equal_to_scatter_loop(build, max_rank):
    g = build()
    rho = mc.random_density(g.d, np.random.default_rng(80 + max_rank)).matrix
    state = bl.decompose_density(rho, g, max_rank=max_rank)
    tensors, trace_parts = _decompose_by_loop(rho, g, max_rank)
    got = {1: state.v, 2: state.w, 3: state.u}
    for r, t in tensors.items():
        assert got[r].tobytes() == t.tobytes()
    # trace_parts sums coefficient times monomial trace directly now; only
    # its last digits may differ from the matrix loop's
    assert state.trace_parts == pytest.approx(trace_parts, abs=1e-14)
    assert mc.max_abs(bl.reconstruct(state, g) - rho) < 1e-9


def _g2_bounds_by_fraction_lists(kappa2, kappa4):
    # the hand-rolled exact polynomial recursion, coefficient lists in x = v^2
    def mul(a, b):
        out = [Fraction(0)] * 3
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                if ai * bj != 0:
                    out[i + j] += ai * bj
        return out

    t = {0: [Fraction(7)], 2: [Fraction(0), kappa2], 4: [Fraction(0), Fraction(0), kappa4]}
    c = {}
    for q in range(1, 5):
        c[q] = [Fraction(0)] * 3
        for j, tj in t.items():
            if j <= q:
                for power, val in enumerate(tj):
                    c[q][power] += Fraction(math.comb(q, j), 7**q) * val
    a = {0: [Fraction(1)]}
    for k in range(1, 5):
        acc = [Fraction(0)] * 3
        for q in range(1, k + 1):
            for power, val in enumerate(mul(c[q], a[k - q])):
                acc[power] += (-1) ** (q - 1) * val
        a[k] = [x / k for x in acc]
    return [bl._largest_nonneg_root(a[k]) for k in (2, 3, 4)]


def test_g2_bound_refine_equal_to_fraction_list_recursion():
    forms = bl.g2_trace_forms(g2())
    kappa2, kappa4 = forms.kappa2, forms.kappa4
    expect = _g2_bounds_by_fraction_lists(kappa2, kappa4)
    assert [b.v_squared_bound for b in bl.g2_bound_refine(g2())] == expect
    assert [b.v_bound for b in bl.g2_bound_refine(g2())] == [math.sqrt(x) for x in expect]


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1j * np.nan, -1j * np.inf])
def test_pure_from_psi_rejects_non_finite(bad):
    psi = np.array([1.0, 0.0, 0.0], dtype=complex)
    psi[1] = bad
    with pytest.raises(ValueError, match="finite"):
        bl.pure_from_psi(psi)
