import copy
import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from liechan import bloch as bl
from liechan import channel as ch
from liechan import matcore as mc
from liechan import repgen as rg
from tests.conftest import clifford, g2, maximally_mixed, spin, su
from tests.test_matcore import reference_sym_fold


def random_unit_trace_vw(two_s, rng, scale=0.15):
    """(v, w) with tr(w) = 3/(d lam) and rho_vw positive semidefinite."""
    d = two_s + 1
    lam = (two_s / 2.0) * (two_s / 2.0 + 1.0)
    base = np.eye(3) / (d * lam)
    dw = rng.normal(size=(3, 3)) * scale
    dw = (dw + dw.T) / 2.0
    dw -= np.eye(3) * np.trace(dw) / 3.0
    v = rng.normal(size=3) * scale
    rho = bl.rho_vw(spin(two_s), v, base + dw)
    lo = float(np.linalg.eigvalsh(rho).min())
    if lo < 0.05 / d:
        shrink = 0.5 * (1.0 / d) / (1.0 / d - lo)
        v = shrink * v
        dw = shrink * dw
    return v, base + dw


# ---------------------------------------------------------------------------
# Construction and application

def test_build_channel_p0_is_identity_map():
    g = su(3)
    channel = ch.build_channel(g, 0.0)
    assert len(channel.ops) == 1
    rho = mc.random_density(3, np.random.default_rng(0))
    out = ch.apply(channel, rho)
    assert mc.max_abs(out.matrix - rho.matrix) < 1e-12


def test_build_channel_p1_drops_identity_op():
    g = spin(2)
    channel = ch.build_channel(g, 1.0)
    assert len(channel.ops) == 3
    for op in channel.ops:
        assert abs(np.trace(op)) < 1e-12  # no identity component


def test_build_channel_normalization_su3():
    channel = ch.build_channel(su(3), 0.5)
    total = sum(m.conj().T @ m for m in channel.ops)
    assert mc.max_abs(total - np.eye(3)) < 1e-10


@pytest.mark.parametrize("p", [-0.1, 1.0000001, 2.0])
def test_build_channel_p_out_of_range(p):
    with pytest.raises(ch.POutOfRangeError):
        ch.build_channel(su(2), p)


def test_apply_unitality():
    for g in (su(2), su(4), spin(3), g2()):
        channel = ch.build_channel(g, 0.7)
        out = ch.apply(channel, maximally_mixed(g.d))
        assert mc.max_abs(out.matrix - np.eye(g.d) / g.d) < 1e-10


def test_qubit_bloch_contraction():
    # rho = (I + v.sigma)/2 goes to (I + (1 - 4p/3) v.sigma)/2
    g = su(2)
    rng = np.random.default_rng(1)
    for p in (0.1, 0.5, 0.9):
        channel = ch.build_channel(g, p)
        v = rng.normal(size=3)
        v *= 0.9 / np.linalg.norm(v)
        rho = bl.bloch_rho(g, v)
        expected = bl.bloch_rho(g, (1.0 - 4.0 * p / 3.0) * v)
        assert mc.max_abs(ch.apply_matrix(channel, rho) - expected) < 1e-12


def test_g2_bloch_scaling():
    g = g2()
    rng = np.random.default_rng(2)
    for p in (0.25, 0.75):
        channel = ch.build_channel(g, p)
        v = rng.normal(size=14) * 0.2
        out = ch.apply_matrix(channel, bl.bloch_rho(g, v))
        assert mc.max_abs(out - bl.bloch_rho(g, (1.0 - p) * v)) < 1e-12


def test_apply_dimension_mismatch():
    channel = ch.build_channel(su(2), 0.3)
    with pytest.raises(ValueError):
        ch.apply(channel, maximally_mixed(3))


# ---------------------------------------------------------------------------
# Depolarizing structure

def test_su_n_factor_values():
    assert ch.su_n_factor(0.3, 2) == pytest.approx(1.0 - 0.4)
    for n in (2, 3, 4, 5):
        assert ch.su_n_factor(0.0, n) == pytest.approx(1.0)
        assert ch.su_n_factor(ch.su_n_critical(n), n) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_su_channel_detected_depolarizing(n):
    for p in (0.2, 0.8):
        lam = ch.detect_depolarizing(ch.build_channel(su(n), p))
        assert lam is not None
        assert abs(lam - ch.su_n_factor(p, n)) < 1e-9


def test_spin1_not_depolarizing():
    lam = ch.detect_depolarizing(ch.build_channel(spin(2), 0.5))
    assert lam is None


def test_identity_channel_depolarizing_lambda_one():
    lam = ch.detect_depolarizing(ch.build_channel(su(2), 0.0))
    assert lam == pytest.approx(1.0, abs=1e-12)


def reference_superoperator(ops):
    """S = sum_k K (x) conj(K) as a transposed copy of the Gram product."""
    n, d, _ = ops.shape
    flat = ops.reshape(n, d * d)
    return (flat.T @ flat.conj()).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def reference_depolarizing(ops):
    """lambda and max |S - T| as detect_depolarizing formed them from S and the
    target superoperator T = lambda I + ((1 - lambda)/d) vec(I) vec(I)^T."""
    d = ops.shape[1]
    s = reference_superoperator(ops)
    lam = (float(np.trace(s).real) - 1.0) / (d * d - 1.0)
    vec_eye = np.eye(d).ravel()
    target = lam * np.eye(d * d) + ((1.0 - lam) / d) * np.outer(vec_eye, vec_eye)
    return lam, mc.max_abs(s - target)


def weyl_depolarizing(d, p, rng):
    """Kraus operators sqrt(w_ab) U X^a Z^b U^dag of the depolarizing channel
    with lambda = 1 - p, in a random orthonormal basis U."""
    u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    shift = np.roll(np.eye(d), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    ops = [math.sqrt((1.0 - p) * (a == b == 0) + p / d**2)
           * u @ np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b) @ u.conj().T
           for a in range(d) for b in range(d)]
    return ch.KrausChannel(ops=ops)


def _depolarizing_channels():
    rng = np.random.default_rng(2024)
    sets = ([su(n) for n in range(2, 9)] + [spin(t) for t in range(1, 16)]
            + [g2(), clifford()[0]])
    for g in sets:
        for p in (0.0, 0.3, 1.0, *rng.uniform(size=2)):
            yield ch.build_channel(g, p)
    for d in range(2, 17):
        yield weyl_depolarizing(d, rng.uniform(), rng)
    for g in (su(2), su(3), su(4), spin(2), spin(3), g2(), clifford()[0]):
        yield ch.double_channel(g)
    for m in (1, 2, 4):
        yield ch.clifford_vector_channel(clifford()[0], list(rng.normal(size=(m, 4))))


def test_depolarizing_read_from_choi_bitwise_equal_to_superoperator_form(monkeypatch):
    # with max_abs patched to pass every channel, detect_depolarizing returns
    # its lambda also where it would reject, and the patch records the misfit
    misfits = []
    real_max_abs = ch.max_abs
    accepted = 0
    for channel in _depolarizing_channels():
        lam_ref, misfit_ref = reference_depolarizing(channel.ops)
        decision = ch.detect_depolarizing(channel)
        assert (decision is not None) == (misfit_ref <= ch.DEPOLARIZING_FIT_TOL)
        accepted += decision is not None
        with monkeypatch.context() as m:
            m.setattr(ch, "max_abs", lambda a: misfits.append(real_max_abs(a)) or 0.0)
            lam = ch.detect_depolarizing(channel)
        assert (lam, misfits[-1]) == (lam_ref, misfit_ref)
        assert math.copysign(1.0, lam) == math.copysign(1.0, lam_ref)
    assert 0 < accepted < len(misfits)   # both decisions are covered


def test_weyl_channels_in_random_bases_are_depolarizing():
    rng = np.random.default_rng(77)
    for d in range(2, 17):
        p = rng.uniform()
        assert ch.detect_depolarizing(weyl_depolarizing(d, p, rng)) == pytest.approx(1.0 - p, abs=1e-12)


@pytest.mark.parametrize("build", [
    lambda: su(2), lambda: su(3), lambda: su(5), lambda: su(8), lambda: spin(1), lambda: spin(2),
    lambda: spin(3), lambda: spin(7), lambda: spin(15), lambda: spin(31), lambda: g2(),
    lambda: clifford()[0],
], ids=["su2", "su3", "su5", "su8", "spin1_2", "spin1", "spin3_2", "spin7_2", "spin15_2",
        "spin31_2", "g2", "clifford"])
def test_generator_action_bitwise_equal_to_transposed_copy(build):
    g = build()
    assert ch.generator_action(g).tobytes() == reference_superoperator(g.generators).tobytes()
    ops = ch.build_channel(g, 0.3).ops
    assert ch.superoperator(ops).tobytes() == reference_superoperator(ops).tobytes()


def _peak_units(fn, d):
    """tracemalloc peak of fn() in units of one d^2 x d^2 complex128 array."""
    fn()   # first call outside the trace: lazy imports and caches
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (16 * d**4)


def test_operator_space_peaks_at_spin_15_2():
    # one L and a d^3 block for generator_action; one Choi matrix and its
    # float abs for detect_depolarizing (S, T and S - T were three)
    g = spin(15)
    channel = ch.build_channel(g, 0.3)
    assert _peak_units(lambda: ch.generator_action(g), g.d) <= 1.2
    assert _peak_units(lambda: ch.detect_depolarizing(channel), g.d) <= 1.6


def test_basis_rotation_leaves_channel_unchanged():
    g = su(3)
    rng = np.random.default_rng(6)
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    stack = np.stack(g.generators)
    rotated = rg.GeneratorSet.from_generators(np.einsum("ab,bij->aij", q, stack))
    c1 = ch.build_channel(g, 0.4)
    c2 = ch.build_channel(rotated, 0.4)
    for i in range(10):
        rho = mc.random_density(3, mc.derived_rng(7, i)).matrix
        assert mc.max_abs(ch.apply_matrix(c1, rho) - ch.apply_matrix(c2, rho)) < 1e-9


# ---------------------------------------------------------------------------
# Spin closed form and iteration

def test_spin1_vw_closed_form_exact():
    rng = np.random.default_rng(8)
    v, w = random_unit_trace_vw(2, rng)
    for p in (0.0, 0.3, 1.0):
        v2, w2 = ch.spin_channel_vw(spin(2), p, v, w)
        np.testing.assert_allclose(v2, (1.0 - p / 2.0) * v, atol=1e-14)
        np.testing.assert_allclose(
            w2, (1.0 - 1.5 * p) * w + (p / 4.0) * np.eye(3), atol=1e-14
        )


def test_spin1_w_fixed_point():
    w = np.eye(3) / 6.0
    for p in (0.2, 0.9):
        _, w2 = ch.spin_channel_vw(spin(2), p, np.zeros(3), w)
        np.testing.assert_allclose(w2, w, atol=1e-14)


@pytest.mark.parametrize("two_s", [1, 2, 3, 4, 5, 6])
def test_spin_vw_matches_direct_application(two_s):
    g = spin(two_s)
    for i in range(4):
        rng = mc.derived_rng(9, 10 * two_s + i)
        p = rng.uniform(0.0, 1.0)
        v, w = random_unit_trace_vw(two_s, rng)
        v2, w2 = ch.spin_channel_vw(spin(two_s), p, v, w)
        direct = ch.apply_matrix(ch.build_channel(g, p), bl.rho_vw(spin(two_s), v, w))
        assert mc.max_abs(direct - bl.rho_vw(spin(two_s), v2, w2)) < 1e-8


def test_spin_vw_helpers_reject_non_spin_sets():
    w = np.eye(3) / 8.0
    with pytest.raises(ValueError, match="spin generator set"):
        ch.spin_channel_vw(su(3), 0.5, np.zeros(3), w)
    with pytest.raises(ValueError, match="spin generator set"):
        bl.rho_vw(su(3), np.zeros(3), w)
    with pytest.raises(ValueError, match="spin generator set"):
        bl.extract_vw(np.eye(3) / 3.0, su(3))
    with pytest.raises(ValueError, match="spin generator set"):
        bl.spin_vw_purity_search(su(2))


@pytest.mark.parametrize("two_s", [1, 2, 3, 7, 63])
def test_stacked_spin_channel_vw_bitwise_equal_to_one_p(two_s):
    g = spin(two_s)
    rng = mc.derived_rng(12, two_s)
    ps = np.array([0.0, 1.0] + rng.uniform(size=4).tolist())
    v, w = map(np.stack, zip(*[random_unit_trace_vw(two_s, rng) for _ in ps]))
    v2, w2 = ch.spin_channel_vw(g, ps, v, w)
    for i, p in enumerate(ps.tolist()):
        one_v, one_w = ch.spin_channel_vw(g, p, v[i], w[i])
        assert v2[i].tobytes() == one_v.tobytes() and w2[i].tobytes() == one_w.tobytes()
    with pytest.raises(ch.POutOfRangeError, match=re.escape("p = 1.5 lies outside [0, 1]")):
        ch.spin_channel_vw(g, np.array([0.5, 1.5]), v[:2], w[:2])
    with pytest.raises(ValueError, match="expected one p per"):
        ch.spin_channel_vw(g, ps[:2], v, w)


def test_spin_vw_trace_precondition():
    with pytest.raises(ValueError):
        ch.spin_channel_vw(spin(2), 0.5, np.zeros(3), np.eye(3))  # tr w = 3 != 1/2


def test_iterate_w_polynomial_base_matches_one_application():
    # the one-application map must coincide with the closed-form action
    p = 0.37
    it = ch.iterate_w_polynomial(p, 1)
    rng = np.random.default_rng(10)
    _, w = random_unit_trace_vw(2, rng)
    _, w_direct = ch.spin_channel_vw(spin(2), p, np.zeros(3), w)
    np.testing.assert_allclose(it.apply_to(w), w_direct, atol=1e-14)
    assert it.value == pytest.approx(p / 4.0)


def test_iterate_w_polynomial_recursion_and_closed_form():
    p = 0.61
    prev = ch.iterate_w_polynomial(p, 1).value
    for n in range(2, 7):
        cur = ch.iterate_w_polynomial(p, n).value
        assert cur == pytest.approx((1.0 - 1.5 * p) * prev + p / 4.0, abs=1e-14)
        assert cur == pytest.approx((1.0 - (1.0 - 1.5 * p) ** n) / 6.0, abs=1e-12)
        prev = cur


def test_iterate_w_matches_repeated_application():
    g = spin(2)
    rng = np.random.default_rng(11)
    p = 0.4
    _, w = random_unit_trace_vw(2, rng)
    rho = bl.rho_vw(spin(2), np.zeros(3), w)
    channel = ch.build_channel(g, p)
    acc = rho.copy()
    for n in range(1, 4):
        acc = ch.apply_matrix(channel, acc)
    wn = ch.iterate_w_polynomial(p, 3).apply_to(w)
    assert mc.max_abs(acc - bl.rho_vw(spin(2), np.zeros(3), wn)) < 1e-9


@pytest.mark.parametrize("n", range(1, 12))
def test_iterate_w_polynomial_bitwise_equal_to_numpy_polynomial(n):
    from numpy.polynomial import polynomial as npoly

    step, inhom = np.array([1.0, -1.5]), np.array([0.0, 0.25])
    ps = [0.0, -0.0, 1.0, 0.5, 2.0 / 3.0, 1e-300] + np.random.default_rng(n).random(20).tolist()
    for p in ps:
        coeffs = np.zeros(1)
        for _ in range(n):
            coeffs = npoly.polyadd(npoly.polymul(step, coeffs), inhom)
        it = ch.iterate_w_polynomial(p, n)
        assert np.array(it.coefficients).tobytes() == coeffs.tobytes()
        assert np.float64(it.value).tobytes() == np.float64(npoly.polyval(p, coeffs)).tobytes()
    # a stack of p: every value, and every w it maps, bitwise the one-p result
    stacked = ch.iterate_w_polynomial(np.array(ps), n)
    assert stacked.coefficients == it.coefficients
    assert stacked.value.tobytes() == np.array([ch.iterate_w_polynomial(p, n).value for p in ps]).tobytes()
    ws = np.random.default_rng(n).normal(size=(len(ps), 3, 3))
    one = [ch.iterate_w_polynomial(p, n).apply_to(w) for p, w in zip(ps, ws)]
    assert stacked.apply_to(ws).tobytes() == np.stack(one).tobytes()
    with pytest.raises(ValueError, match="expected a 3x3 tensor per p"):
        stacked.apply_to(ws[0])


def test_iterate_w_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        ch.iterate_w_polynomial(0.5, 0)


# ---------------------------------------------------------------------------
# Extensions

def test_extend_identity_channel_by_set():
    g = su(2)
    b_ops = [x / math.sqrt(g.Z) for x in g.generators]
    ext = ch.extend(b_ops, [np.eye(2)], at_index=0)
    assert len(ext.ops) == 3
    for got, expect in zip(ext.ops, b_ops):
        assert mc.max_abs(got - expect) < 1e-12


def test_extend_complex_coefficients_recover_lie_channel():
    # extending {B_i = X_i / sqrt(Z)} by {m0 I, m I} on the second element
    # reproduces the p = m^2 channel when m is real
    g = su(3)
    m_tilde = 0.6
    m0 = math.sqrt(1.0 - m_tilde**2)
    b_ops = [x / math.sqrt(g.Z) for x in g.generators]
    a_ops = [m0 * np.eye(3), m_tilde * np.eye(3)]
    ext = ch.extend(b_ops, a_ops, at_index=1)
    direct = ch.build_channel(g, m_tilde**2)
    for i in range(10):
        rho = mc.random_density(3, mc.derived_rng(12, i)).matrix
        assert mc.max_abs(ch.apply_matrix(ext, rho) - ch.apply_matrix(direct, rho)) < 1e-12


def test_extend_random_normalized_sets():
    rng = np.random.default_rng(13)
    # random isometry columns give a normalized Kraus family
    def random_kraus(d, m, rng):
        z = rng.normal(size=(d * m, d)) + 1j * rng.normal(size=(d * m, d))
        q, _ = np.linalg.qr(z)
        return [q[i * d:(i + 1) * d, :] for i in range(m)]

    a_ops = random_kraus(3, 2, rng)
    b_ops = random_kraus(3, 3, rng)
    ext = ch.extend(b_ops, a_ops, at_index=1)
    total = sum(m.conj().T @ m for m in ext.ops)
    assert mc.max_abs(total - np.eye(3)) < 1e-10


def test_extend_rejects_unnormalized():
    with pytest.raises(ValueError):
        ch.extend([np.eye(2) * 2.0], [np.eye(2)], at_index=0)


def test_normalization_deviation():
    assert ch.normalization_deviation(ch.build_channel(su(3), 0.5).ops) < 1e-12
    assert ch.normalization_deviation([np.eye(2) * 2.0]) == pytest.approx(3.0)


def test_double_channel_su2():
    dbl = ch.double_channel(su(2))
    assert len(dbl.ops) == 9
    total = sum(m.conj().T @ m for m in dbl.ops)
    assert mc.max_abs(total - np.eye(2)) < 1e-9
    out = ch.apply(dbl, maximally_mixed(2))
    assert mc.max_abs(out.matrix - np.eye(2) / 2.0) < 1e-10


def test_double_channel_spin1_trace_preserving():
    dbl = ch.double_channel(spin(2))
    for i in range(20):
        rho = mc.random_density(3, mc.derived_rng(14, i))
        out = ch.apply(dbl, rho)
        assert abs(np.trace(out.matrix).real - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# Identities and critical values

@pytest.mark.parametrize("two_s", [1, 2, 3, 4, 5, 6])
def test_spin_rank1_identity(two_s):
    g = spin(two_s)
    lam = g.Z
    report = ch.find_identity(g, 1)
    assert report.special
    assert report.g == pytest.approx(lam - 1.0, abs=1e-10)
    assert report.residual < 1e-9
    assert mc.max_abs(report.f_tensor) < 1e-10


@pytest.mark.parametrize("two_s", [2, 3, 4, 5, 6])
def test_spin_rank2_identity(two_s):
    g = spin(two_s)
    lam = g.Z
    report = ch.find_identity(g, 2)
    assert report.special
    assert report.g == pytest.approx(lam - 3.0, abs=1e-10)
    assert report.residual < 1e-9
    assert mc.max_abs(report.f_tensor - lam * np.eye(3)) < 1e-9


def test_spin_half_rank2_identity_degenerate_but_consistent():
    # for d = 2 every symmetrized pair is a multiple of the identity, so g
    # is not identifiable; the stated value lam - 3 still fits exactly
    g = spin(1)
    lam = g.Z
    report = ch.find_identity(g, 2)
    assert report.special
    assert report.g is None
    assert not any(report.informative)
    assert report.residual_with(lam - 3.0) < 1e-12


def test_g2_cubic_identity_via_find_identity():
    report = ch.find_identity(g2(), 1)
    assert report.special
    assert report.g == pytest.approx(0.0, abs=1e-12)
    assert report.residual < 1e-12
    assert mc.max_abs(report.f_tensor) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_su_rank1_identity_and_critical(n):
    g = su(n)
    report = ch.find_identity(g, 1)
    assert report.special
    assert report.g == pytest.approx(-2.0 / n, abs=1e-10)
    decomp = ch.critical_values(g, max_rank=1)
    entry = decomp.entry(1)
    assert entry.in_range
    assert entry.p_value == pytest.approx(1.0 - 1.0 / n**2, abs=1e-12)
    assert entry.verified


def test_su4_rank3_critical_values():
    n = 4
    g = su(n)
    decomp = ch.critical_values(g, max_rank=3)
    assert [e.rank for e in decomp.entries] == [1, 2, 3]
    for e in decomp.entries:
        assert e.special
        assert e.g == pytest.approx(-g.Z / (n * n - 1), abs=1e-12)
        assert e.verified is True


@pytest.mark.parametrize("gens", [lambda: su(3), lambda: g2()], ids=["su3", "g2"])
def test_find_identity_transforms_match_per_monomial_einsum(gens):
    # Both sides add up the same k d^2 products X_i[a,b] M[b,c] X_i[c,d], in
    # different orders: the einsum per monomial, the core through
    # L = sum_i X_i (x) conj(X_i) and one matmul.  A product of two complex
    # multiplications is off by at most 2 sqrt(5) u < 5u relative
    # (u = 2^-53), and a sum of n terms, however grouped, by at most
    # gamma_(n-1) sum |terms| with gamma_n = n u / (1 - n u).  So each side is
    # within gamma_(k d^2 + 4) S of the exact sum, S = sum_i |X_i| |M| |X_i|
    # entrywise, and the two within twice that.
    g = gens()
    stack = np.stack(g.generators)
    u = np.finfo(float).eps / 2
    n = g.k * g.d * g.d + 4
    bound = 2 * n * u / (1 - n * u)
    _, monomials = mc.sym_monomials(g.generators, 2)
    _, blocks = ch._monomial_blocks(g, 2, ch.generator_action(g))
    seen = []
    for rows, block, transforms in blocks:   # the fit's monomials and transforms
        assert block.tobytes() == monomials[rows].tobytes()
        for m, t in zip(block, transforms):
            ref = np.einsum("iab,bc,icd->ad", stack, m, stack)
            scale = np.einsum("iab,bc,icd->ad", np.abs(stack), np.abs(m), np.abs(stack))
            assert np.all(np.abs(t - ref) <= bound * scale)
        seen += rows.tolist()
    assert sorted(seen) == list(range(len(monomials)))


@pytest.mark.parametrize(
    "gens, r", [(lambda: su(3), 2), (lambda: g2(), 2), (lambda: spin(3), 3)],
    ids=["su3_r2", "g2_r2", "spin3_2_r3"],
)
def test_find_identity_fit_matches_per_monomial_loop(gens, r):
    # The fit used to run monomial by monomial; the batched arithmetic sums
    # in another order, so agreement is to round-off (1e-12 on entries of
    # order 1), with identical informative flags.
    g = gens()
    report = ch.find_identity(g, r)
    d, eye = g.d, np.eye(g.d)
    multisets, monomials = mc.sym_monomials(g.generators, r)
    assert multisets == report.multisets
    transforms = (monomials.reshape(-1, d * d) @ ch.generator_action(g).T).reshape(monomials.shape)
    worst = 0.0
    for ms, m, t, informative in zip(multisets, monomials, transforms, report.informative):
        tr_m, tr_t = np.trace(m).real, np.trace(t).real
        m0 = m - (tr_m / d) * eye
        norm0 = float(np.vdot(m0, m0).real)
        assert informative == (norm0 > 1e-16 * max(1.0, float(np.vdot(m, m).real)))
        gm = float(np.vdot(m0, t - (tr_t / d) * eye).real) / norm0 if informative else 0.0
        fm = (tr_t - gm * tr_m) / d
        worst = max(worst, mc.max_abs(t - fm * eye - gm * m))
        assert report.f_tensor[ms] == pytest.approx(fm, abs=1e-12)
        if informative:
            assert report.g_tensor[ms] == pytest.approx(gm, abs=1e-12)
        else:
            assert np.isnan(report.g_tensor[ms])
    assert report.residual == pytest.approx(worst, abs=1e-12)


def test_critical_values_rejects_rank_out_of_range():
    for max_rank in (0, 4):
        with pytest.raises(ValueError, match="max_rank"):
            ch.critical_values(su(2), max_rank=max_rank)


def test_spin1_critical_values():
    decomp = ch.critical_values(spin(2), max_rank=2)
    e1, e2 = decomp.entry(1), decomp.entry(2)
    assert e1.p_value == pytest.approx(2.0)
    assert not e1.in_range and e1.verified is None
    assert e2.p_value == pytest.approx(2.0 / 3.0)
    assert e2.in_range and e2.verified


def test_spin1_critical_rank2_output_is_bloch():
    # at p = lam/3 the image of any rho_vw is I/d + (2/3) v.J
    g = spin(2)
    lam = g.Z
    channel = ch.build_channel(g, lam / 3.0)
    rng = np.random.default_rng(17)
    v, w = random_unit_trace_vw(2, rng)
    out = ch.apply_matrix(channel, bl.rho_vw(spin(2), v, w))
    expect = np.eye(3) / 3.0 + (2.0 / 3.0) * sum(
        vi * ji for vi, ji in zip(v, g.generators)
    )
    assert mc.max_abs(out - expect) < 1e-12


def test_g2_critical_value_is_one():
    decomp = ch.critical_values(g2(), max_rank=1)
    entry = decomp.entry(1)
    assert entry.p_value == pytest.approx(1.0)
    assert not entry.in_range          # g = 0 sits on the boundary
    assert entry.verified              # p = 1 is still a valid channel


# ---------------------------------------------------------------------------
# Entropy and norms

def test_min_entropy_identity_channel():
    assert ch.min_entropy_su_n(0.0, 3) == 0.0


def test_min_entropy_qubit_critical():
    assert ch.min_entropy_su_n(0.75, 2) == pytest.approx(math.log(2.0), abs=1e-12)


def test_min_entropy_matches_sampled_minimum():
    n, p = 3, 0.3
    channel = ch.build_channel(su(n), p)
    sampled = ch.sampled_min_output_entropy(channel, n_samples=2000, seed=19)
    assert abs(sampled - ch.min_entropy_su_n(p, n)) < 1e-6


def test_min_entropy_rejects_bad_p():
    with pytest.raises(ch.POutOfRangeError):
        ch.min_entropy_su_n(1.5, 3)


def test_max_lq_norm_identity_channel():
    channel = ch.build_channel(su(3), 0.0)
    for q in (1.5, 2.0, 4.0):
        assert ch.max_lq_norm(channel, q, n_samples=50, seed=20) == pytest.approx(1.0, abs=1e-10)


def test_max_lq_norm_qubit_analytic():
    p, q = 0.4, 2.0
    f = ch.su_n_factor(p, 2)
    big, small = f + (1.0 - f) / 2.0, (1.0 - f) / 2.0
    expected = (big**q + small**q) ** (1.0 / q)
    got = ch.max_lq_norm(ch.build_channel(su(2), p), q, n_samples=100, seed=21)
    assert abs(got - expected) < 1e-9


def test_max_lq_norm_spin1_p1_matches_werner_holevo():
    q = 4.79
    channel = ch.build_channel(spin(2), 1.0)
    got = ch.max_lq_norm(channel, q, n_samples=100, seed=22)
    psi = mc.random_pure_statevector(3, np.random.default_rng(23))
    wh_out = ch.werner_holevo(mc.DensityMatrix(np.outer(psi, psi.conj())))
    assert abs(got - ch.lq_norm(wh_out.matrix, q)) < 1e-9


def test_lq_norm_rejects_q_below_one():
    with pytest.raises(ValueError):
        ch.lq_norm(np.eye(2), 0.5)


# ---------------------------------------------------------------------------
# Werner-Holevo

def test_werner_holevo_fixes_uniform():
    out = ch.werner_holevo(maximally_mixed(4))
    assert mc.max_abs(out.matrix - np.eye(4) / 4.0) < 1e-12


def test_werner_holevo_pure_spectrum():
    rho = mc.DensityMatrix(np.diag([1.0, 0.0, 0.0]).astype(complex))
    ev = np.sort(np.linalg.eigvalsh(ch.werner_holevo(rho).matrix))
    np.testing.assert_allclose(ev, [0.0, 0.5, 0.5], atol=1e-12)


def test_werner_holevo_rejects_dim_one():
    with pytest.raises(ValueError):
        ch.werner_holevo(mc.DensityMatrix(np.eye(1, dtype=complex)))


def test_spin1_p1_spectrally_equal_to_werner_holevo():
    channel = ch.build_channel(spin(2), 1.0)
    for i in range(20):
        rho = mc.random_density(3, mc.derived_rng(24, i))
        ev1 = np.sort(np.linalg.eigvalsh(ch.apply(channel, rho).matrix))
        ev2 = np.sort(np.linalg.eigvalsh(ch.werner_holevo(rho).matrix))
        assert mc.max_abs(ev1 - ev2) < 1e-9


# ---------------------------------------------------------------------------
# Clifford vector channel

def test_clifford_vector_channel_normalized():
    g, _ = clifford()
    rng = np.random.default_rng(25)
    for m in (1, 2, 3, 4):
        xs = [rng.normal(size=4) for _ in range(m)]
        channel = ch.clifford_vector_channel(g, xs)
        total = sum(k.conj().T @ k for k in channel.ops)
        assert mc.max_abs(total - np.eye(4)) < 1e-10


def test_clifford_vector_channel_trace_preserving():
    g, _ = clifford()
    rng = np.random.default_rng(26)
    xs = [rng.normal(size=4), rng.normal(size=4)]
    channel = ch.clifford_vector_channel(g, xs)
    for i in range(10):
        out = ch.apply(channel, mc.random_density(4, mc.derived_rng(27, i)))
        assert abs(np.trace(out.matrix).real - 1.0) < 1e-10


def test_clifford_vector_channel_rejects_empty():
    g, _ = clifford()
    with pytest.raises(ValueError):
        ch.clifford_vector_channel(g, [])


# ---------------------------------------------------------------------------
# Channel output invariants across families

@pytest.mark.parametrize(
    "factory",
    [
        lambda: ch.build_channel(su(2), 0.6),
        lambda: ch.build_channel(su(5), 0.35),
        lambda: ch.build_channel(spin(4), 0.5),
        lambda: ch.build_channel(g2(), 0.8),
        lambda: ch.double_channel(spin(3)),
    ],
)
def test_channel_output_invariants(factory):
    channel = factory()
    d = channel.dim
    for i in range(15):
        rho = mc.random_density(d, mc.derived_rng(28, i))
        out = ch.apply(channel, rho)
        assert abs(np.trace(out.matrix).real - 1.0) <= 1e-10
        assert mc.max_abs(out.matrix - out.matrix.conj().T) <= 1e-10
        assert np.linalg.eigvalsh(out.matrix)[0] >= -1e-9


def test_channel_rejects_mixed_dimensions():
    with pytest.raises(ValueError, match="^Kraus operators must share one dimension$"):
        ch.KrausChannel(ops=(np.eye(2), np.eye(3)))
    with pytest.raises(ValueError, match="^generator dimension mismatch$"):
        rg.GeneratorSet.from_generators([np.diag([1.0, -1.0]), np.diag([1.0, 0.0, -1.0])])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_channel_rejects_a_non_finite_operator(bad):
    ops = (np.eye(2) / math.sqrt(2.0), np.full((2, 2), bad))
    with pytest.raises(ValueError, match=re.escape("matrix entries must be finite (no NaN/Inf)")):
        ch.KrausChannel(ops=ops)


def test_operator_stacks_are_read_only():
    g = su(3)
    channel = ch.build_channel(g, 0.4)
    assert g.generators.shape == (8, 3, 3) and channel.ops.shape == (9, 3, 3)
    for stack in (g.generators, channel.ops):
        assert stack.dtype == np.complex128
        with pytest.raises(ValueError, match="read-only"):
            stack[0, 0, 0] = 1.0


def _kraus_by_loop(g, p):
    # the per-matrix tuple build_channel assembled before the operators were one stack
    gens = [np.array(x) for x in g.generators]
    ops = [math.sqrt(1.0 - p) * np.eye(g.d, dtype=np.complex128)] if p < 1.0 else []
    if p > 0.0:
        ops.extend(math.sqrt(p / g.Z) * x for x in gens)
    return tuple(ops)


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
@pytest.mark.parametrize(
    "build",
    [lambda: su(2), lambda: su(8), lambda: spin(7), g2, lambda: clifford()[0]],
    ids=["su2", "su8", "spin7_2", "g2", "clifford"],
)
def test_build_channel_and_apply_bitwise_equal_to_tuple_loop(build, p):
    g = build()
    ref = _kraus_by_loop(g, p)
    channel = ch.build_channel(g, p)
    assert channel.ops.tobytes() == np.stack(ref).tobytes()
    rho = mc.random_density(g.d, mc.derived_rng(41, g.d)).matrix
    double = ch.double_channel(g)   # k^2 operators: a long reduction
    for ops, kraus in ((ref, channel), (double.ops, double)):
        out = np.zeros_like(rho)
        for k in ops:
            out += k @ rho @ k.conj().T
        assert ch.apply_matrix(kraus, rho).tobytes() == out.tobytes()


STACK_PS = (0.0, 1e-12, 0.3, 1.0)   # build_channel drops a Kraus part at p = 0 and at p = 1


@pytest.mark.parametrize(
    "build",
    [lambda: su(3), lambda: spin(3), lambda: spin(63), g2, lambda: clifford()[0]],
    ids=["su3", "spin3_2", "spin63_2", "g2", "clifford"],
)
def test_stacked_channels_bitwise_equal_to_one_channel_each(build):
    g = build()
    ps = np.array(STACK_PS + STACK_PS[::-1])   # every group of rows, interleaved
    rhos = np.stack([mc.random_density(g.d, mc.derived_rng(43, i)).matrix for i in range(len(ps))])
    chs = ch.build_channels(g, ps)
    out = ch.apply_matrices(chs, rhos)
    for i, p in enumerate(ps.tolist()):
        channel = ch.build_channel(g, p)
        assert out[i].tobytes() == ch.apply_matrix(channel, rhos[i]).tobytes()
        assert chs.deviations[i] == ch.normalization_deviation(channel.ops)
    with pytest.raises(ValueError, match="expected 8 matrices"):
        ch.apply_matrices(chs, rhos[1:])


def test_stacked_channels_keep_a_faulty_family_with_its_deviation():
    g = copy.copy(g2())   # a copy skips the constructor's checks
    object.__setattr__(g, "generators", np.concatenate([1.01 * g.generators[:1], g.generators[1:]]))
    chs = ch.build_channels(g, STACK_PS)
    for p, deviation in zip(STACK_PS, chs.deviations.tolist()):
        try:
            ch.build_channel(g, p)
            assert deviation <= ch.NORMALIZATION_TOL
        except ch.NormalizationError as exc:
            assert deviation == exc.deviation
    # p = 1e-12 scales the fault below the tolerance
    assert (chs.deviations > ch.NORMALIZATION_TOL).tolist() == [False, False, True, True]


@pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan")])
def test_stacked_channels_reject_p_out_of_range_as_one_p(bad):
    with pytest.raises(ch.POutOfRangeError) as one:
        ch.build_channel(su(2), bad)
    with pytest.raises(ch.POutOfRangeError) as stacked:
        ch.build_channels(su(2), [0.3, bad, 2.0])
    assert str(stacked.value) == str(one.value)


def test_channel_rejects_unnormalized_ops():
    with pytest.raises(ValueError):
        ch.KrausChannel(ops=(0.5 * np.eye(2),))


def test_extend_at_index_out_of_range():
    with pytest.raises(ValueError):
        ch.extend([np.eye(2)], [np.eye(2)], at_index=3)


@pytest.mark.parametrize("build, r", [
    (lambda: su(3), 2), (lambda: su(4), 3), (lambda: spin(2), 3), (lambda: clifford()[0], 2),
    (lambda: clifford()[0], 3),
], ids=["su3_r2", "su4_r3", "spin1_r3", "clifford_r2", "clifford_r3"])
def test_find_identity_tensors_bitwise_equal_to_scatter_loop(build, r):
    g = build()
    rep = ch.find_identity(g, r)
    f_m = [rep.f_tensor[ms] for ms in rep.multisets]
    g_m = [rep.g_tensor[ms] for ms in rep.multisets]
    # the scatter loop find_identity ran per multiset, NaN where g is not pinned
    f_tensor = np.zeros((g.k,) * r)
    g_tensor = np.full((g.k,) * r, np.nan)
    for ms, fm, gm, informative in zip(rep.multisets, f_m, g_m, rep.informative):
        for perm in set(itertools.permutations(ms)):
            f_tensor[perm] = fm
            g_tensor[perm] = gm if informative else np.nan
    assert rep.f_tensor.tobytes() == f_tensor.tobytes()
    assert rep.g_tensor.tobytes() == g_tensor.tobytes()
    assert np.isnan(g_m).tolist() == [not x for x in rep.informative]


@pytest.mark.parametrize("build", [
    lambda: su(3), lambda: su(5), lambda: g2(), lambda: spin(2), lambda: clifford()[0],
], ids=["su3", "su5", "g2", "spin1", "clifford"])
def test_critical_values_report_unchanged_under_reference_fold(monkeypatch, build):
    g = build()
    texts = [json.dumps(ch.critical_values(g, r).to_json()) for r in (1, 2, 3)]
    monkeypatch.setattr(mc, "_sym_fold", lambda stack, multisets, products: iter(
        [(np.arange(len(multisets)), reference_sym_fold(stack, multisets))]))
    assert [json.dumps(ch.critical_values(g, r).to_json()) for r in (1, 2, 3)] == texts


@pytest.mark.parametrize("build", [lambda: su(3), lambda: g2(), lambda: spin(2)],
                         ids=["su3", "g2", "spin1"])
def test_critical_values_builds_the_generator_action_once(monkeypatch, build):
    g = build()
    report = ch.critical_values(g, 3)
    calls, fits = [], []
    real, real_fit = ch.generator_action, ch.find_identity
    monkeypatch.setattr(ch, "generator_action", lambda g: calls.append(real(g)) or calls[-1])
    monkeypatch.setattr(ch, "find_identity",
                        lambda g, r, action=None: fits.append((r, action)) or real_fit(g, r, action))
    assert json.dumps(ch.critical_values(g, 3).to_json()) == json.dumps(report.to_json())
    assert len(calls) == 1
    # every rank is fitted through the public name, on the one L
    assert [r for r, _ in fits] == [3, 2, 1]   # highest rank first
    assert all(action is calls[0] for _, action in fits)
    for entry in report.entries:   # each rank's fit is find_identity's
        rep = ch.find_identity(g, entry.rank)
        assert (entry.residual, entry.special) == (rep.residual, rep.special)
        assert entry.g == rep.g


def test_identity_fit_takes_each_trace_once(monkeypatch):
    # find_identity traces each block of monomials and of transforms once,
    # so every monomial and transform once, and so does pinned_residual on
    # the blocks of its own pass
    calls = []
    real = ch._traces
    monkeypatch.setattr(ch, "_traces", lambda stack: calls.append(stack.copy()) or real(stack))
    monkeypatch.setattr(ch, "FIT_BLOCK_BYTES", 4096)   # several blocks at su(4) rank 3
    monkeypatch.setattr(ch, "FIT_BLOCK_ROWS", 3)
    for g, r in ((su(3), 2), (spin(3), 3), (g2(), 1), (su(4), 3)):
        _, monomials = mc.sym_monomials(g.generators, r)
        n, d = len(monomials), g.d
        action = ch.generator_action(g)
        transforms = (monomials.reshape(n, d * d) @ action.T).reshape(n, d, d)
        calls.clear()
        ch.find_identity(g, r)
        for traced, whole in ((calls[::2], monomials), (calls[1::2], transforms)):
            assert sorted(m.tobytes() for c in traced for m in c) == sorted(m.tobytes() for m in whole)
        calls.clear()
        ch.pinned_residual(g, r, 0.5, action)   # each block's transforms, then its monomials
        for traced, whole in ((calls[1::2], monomials), (calls[::2], transforms)):
            assert sorted(m.tobytes() for c in traced for m in c) == sorted(m.tobytes() for m in whole)


def _whole_stack_fit(g, r):
    """The fit as find_identity ran it on whole stacks of monomials and
    transforms, and its residual_with on them."""
    multisets, monomials = mc.sym_monomials(g.generators, r)
    n, d = len(monomials), g.d
    transforms = (monomials.reshape(n, d * d) @ ch.generator_action(g).T).reshape(n, d, d)
    tr_m, tr_t = ch._traces(monomials), ch._traces(transforms)
    m0 = ch._traceless(monomials, tr_m)
    norm0 = ch._inner(m0, m0)
    informative = norm0 > 1e-16 * np.maximum(1.0, ch._inner(monomials, monomials))
    g_m = np.where(informative, ch._inner(m0, transforms) / np.where(informative, norm0, 1.0), 0.0)
    f_m = (tr_t - g_m * tr_m) / d
    misfit = g_m[:, None, None] * monomials
    misfit -= transforms
    misfit[:, np.arange(d), np.arange(d)] += f_m[:, None]
    g_values = g_m[informative]
    special = not g_values.size or float(g_values.max() - g_values.min()) <= ch.SPECIAL_SPREAD_TOL
    g_scalar = float(np.mean(g_values)) if special and g_values.size else None

    def residual_with(g0):
        f0 = (tr_t - g0 * tr_m) / d
        return mc.max_abs(transforms - f0[:, None, None] * np.eye(d) - g0 * monomials)

    return dict(multisets=multisets, informative=tuple(informative.tolist()), special=special,
                g=g_scalar, residual=mc.max_abs(misfit), f=f_m, g_m=np.where(informative, g_m, np.nan),
                residual_with=residual_with)


STREAMED_SETS = {
    **{f"su{n}": (lambda n=n: su(n)) for n in range(2, 7)},
    **{f"spin{t}_2": (lambda t=t: spin(t)) for t in (1, 2, 3, 4, 5, 6, 7, 15)},
    "g2": g2,
    "clifford": lambda: clifford()[0],
}


def _small_slabs_and_blocks(monkeypatch):
    # fold slabs of one product's bytes (one pair row, or one largest
    # factor's triples) and fit blocks of 512 bytes of monomials (eight
    # 2 x 2 ones, three from d = 4 on)
    monkeypatch.setattr(mc, "FOLD_SLAB_BYTES", 64)
    monkeypatch.setattr(ch, "FIT_BLOCK_BYTES", 512)
    monkeypatch.setattr(ch, "FIT_BLOCK_ROWS", 3)


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("name", list(STREAMED_SETS))
def test_streamed_fit_bitwise_equal_to_whole_stack_fit(monkeypatch, name, r):
    g = STREAMED_SETS[name]()
    ref = _whole_stack_fit(g, r)
    _small_slabs_and_blocks(monkeypatch)
    if r > 1:   # the fold runs in several slabs
        assert len(list(mc.sym_monomial_slabs(g.generators, r)[1])) > 1
    if r == 3:  # and the fit in several blocks
        assert len(list(ch._monomial_blocks(g, r, ch.generator_action(g))[1])) > 1
    rep = ch.find_identity(g, r)
    assert rep.multisets == ref["multisets"] and rep.informative == ref["informative"]
    assert (rep.special, rep.g, rep.residual) == (ref["special"], ref["g"], ref["residual"])
    for got, want in ((rep._f, "f"), (rep._g, "g_m")):
        assert got.tobytes() == ref[want].tobytes()
    action = ch.generator_action(g)
    for g0 in (0.5, g.Z - 3.0):
        assert ch.pinned_residual(g, r, g0, action) == ref["residual_with"](g0)
        assert rep.residual_with(g0) == ref["residual_with"](g0)


@pytest.mark.parametrize("small", [False, True], ids=["default", "small_blocks"])
@pytest.mark.parametrize("name", list(STREAMED_SETS))
def test_verified_from_the_fit_agrees_with_the_traceless_basis(monkeypatch, name, small):
    # critical_values reads the span of the traceless parts from the R
    # factor the fit stacked block by block; the whole-stack QR behind
    # traceless_basis must give the same span, rank and verdict
    g = STREAMED_SETS[name]()
    action = ch.generator_action(g)
    if small:
        _small_slabs_and_blocks(monkeypatch)
    checked = 0
    for entry in ch.critical_values(g, 3).entries:
        p = entry.p_value
        if p is None or not 0.0 <= p <= 1.0:
            assert entry.verified is None
            continue
        basis = ch.traceless_basis(mc.sym_monomials(g.generators, entry.rank)[1])
        images = (1.0 - p) * basis + (p / g.Z) * (basis @ action.T)
        assert entry.verified == (mc.max_abs(images) <= ch.CRITICAL_MAP_TOL)
        streamed = ch._row_basis(entry._r, len(entry.multisets))
        assert streamed.shape == basis.shape
        assert mc.max_abs(streamed.conj().T @ streamed - basis.conj().T @ basis) < 1e-10
        checked += 1
    assert checked or name.startswith("spin") and g.d > 3


# tracemalloc peak of critical_values(su(n), 3) in rank-3 output stacks: a
# fit over whole stacks holds about 4.2 / 4.1 of them.  It reads 1.29 / 0.67
# streamed on a fresh set, whose pair table (0.16 stacks at su(6)) is built
# inside the call; at su(6) one largest factor's slab of triple products is
# 0.46 stacks by itself.
CRITICAL_PEAK_STACKS = {6: 1.3, 8: 1.0}


@pytest.mark.parametrize("n", sorted(CRITICAL_PEAK_STACKS))
def test_critical_values_peak_below_the_output_stack(n):
    g = rg.gell_mann(n)   # a fresh set: its pair table counts towards the peak
    stack_bytes = math.comb(g.k + 2, 3) * 16 * g.d * g.d   # 4.48 MB at n = 6, 44.7 MB at n = 8
    tracemalloc.start()
    try:
        ch.critical_values(g, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < CRITICAL_PEAK_STACKS[n] * stack_bytes


def test_critical_values_fills_no_symmetric_tensor(monkeypatch):
    calls = []
    real = ch.symmetric_tensor
    monkeypatch.setattr(ch, "symmetric_tensor", lambda *a: calls.append(a) or real(*a))
    for g in (su(3), spin(2), g2()):
        ch.critical_values(g, 3)
    assert calls == []
    rep = ch.find_identity(su(3), 2)
    assert rep.f_tensor is rep.f_tensor and rep.g_tensor is rep.g_tensor
    assert len(calls) == 2


def _eager_tensors(g, rep):
    # the fit and fill that find_identity ran before the tensors were lazy
    ref = _whole_stack_fit(g, rep.rank)
    return (mc.symmetric_tensor(ref["multisets"], ref["f"], g.k),
            mc.symmetric_tensor(ref["multisets"], ref["g_m"], g.k))


@pytest.mark.parametrize("build, r", [
    (lambda: su(3), 3), (lambda: spin(1), 2), (lambda: spin(2), 3), (lambda: g2(), 2),
    (lambda: clifford()[0], 3),
], ids=["su3_r3", "spin1_2_r2", "spin1_r3", "g2_r2", "clifford_r3"])
def test_lazy_identity_tensors_bitwise_equal_to_eager_fill(build, r):
    g = build()
    rep = ch.find_identity(g, r)
    f_tensor, g_tensor = _eager_tensors(g, rep)
    assert rep.f_tensor.tobytes() == f_tensor.tobytes()
    assert rep.g_tensor.tobytes() == g_tensor.tobytes()


def _spin1_w():
    return np.eye(3) / 6.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spin_vw_helpers_reject_non_finite_v(bad):
    v = np.array([bad, 0.0, 0.0])
    with pytest.raises(ValueError, match="finite"):
        ch.spin_channel_vw(spin(2), 0.5, v, _spin1_w())
    with pytest.raises(ValueError, match="finite"):
        bl.rho_vw(spin(2), v, _spin1_w())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spin_vw_helpers_reject_non_finite_symmetric_w(bad):
    # a symmetric pair off the diagonal leaves tr(w) alone, and w - w^T is
    # NaN there, which no '>' comparison catches
    w = _spin1_w()
    w[0, 1] = w[1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        ch.spin_channel_vw(spin(2), 0.5, np.zeros(3), w)
    with pytest.raises(ValueError, match="finite"):
        bl.rho_vw(spin(2), np.zeros(3), w)


def _diagonal_cases(d, rng):
    """(n, d, d) stacks with signed-zero diagonals, contiguous and as views."""
    stack = rng.normal(size=(12, d, d)) * 10.0 ** rng.integers(-9, 9, size=(12, d, d))
    stack = stack + 1j * rng.normal(size=(12, d, d))
    diag = np.arange(d)
    stack[0][diag, diag] = -0.0
    stack[1][diag, diag] = 0.0
    stack[2][diag, diag] = rng.choice([-0.0, 0.0], size=d)
    stack[3][diag, diag] = np.where(diag % 2, 1.5, -0.0)
    big = np.zeros((24, d + 3, d + 2), dtype=np.complex128)
    big[::2, 1:d + 1, 2:] = stack
    return [stack, big[::2, 1:d + 1, 2:], stack.transpose(0, 2, 1), stack[::-1],
            stack[:, ::-1, ::-1]]


@pytest.mark.parametrize("d", list(range(2, 17)) + [32, 64, 100])
def test_traces_bitwise_equal_to_np_trace(d):
    rng = np.random.default_rng(90 + d)
    for stack in _diagonal_cases(d, rng):
        assert ch._traces(stack).tobytes() == np.trace(stack, axis1=1, axis2=2).real.tobytes()
