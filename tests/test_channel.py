import itertools
import math

import numpy as np
import pytest

from liechan import bloch as bl
from liechan import channel as ch
from liechan import matcore as mc
from liechan import repgen as rg
from tests.conftest import clifford, g2, spin, su


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
        out = ch.apply(channel, mc.DensityMatrix.maximally_mixed(g.d))
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
        ch.apply(channel, mc.DensityMatrix.maximally_mixed(3))


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


def test_basis_rotation_leaves_channel_unchanged():
    g = su(3)
    rng = np.random.default_rng(6)
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    rotated = rg.rotate_basis(g, q)
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
    out = ch.apply(dbl, mc.DensityMatrix.maximally_mixed(2))
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
        assert e.g_value == pytest.approx(-g.Z / (n * n - 1), abs=1e-12)
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
    report = ch.find_identity(g, 2)
    for m, t in zip(report._monomials, report._transforms):
        ref = np.einsum("iab,bc,icd->ad", stack, m, stack)
        scale = np.einsum("iab,bc,icd->ad", np.abs(stack), np.abs(m), np.abs(stack))
        assert np.all(np.abs(t - ref) <= bound * scale)


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
    worst = 0.0
    for ms, m, t, informative in zip(report.multisets, report._monomials, report._transforms,
                                     report.informative):
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
    wh_out = ch.werner_holevo(mc.DensityMatrix.from_pure(psi))
    assert abs(got - ch.lq_norm(wh_out.matrix, q)) < 1e-9


def test_lq_norm_rejects_q_below_one():
    with pytest.raises(ValueError):
        ch.lq_norm(np.eye(2), 0.5)


# ---------------------------------------------------------------------------
# Werner-Holevo

def test_werner_holevo_fixes_uniform():
    out = ch.werner_holevo(mc.DensityMatrix.maximally_mixed(4))
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


def test_channel_json_round_trip():
    channel = ch.build_channel(su(2), 0.3)
    again = ch.KrausChannel.from_json(channel.to_json())
    assert again.p == channel.p and again.source == channel.source
    for a, b in zip(again.ops, channel.ops):
        np.testing.assert_array_equal(a, b)


def test_channel_rejects_mixed_dimensions():
    with pytest.raises(ValueError):
        ch.KrausChannel(ops=(np.eye(2), np.eye(3)), p=None, source="custom")


def test_channel_rejects_unnormalized_ops():
    with pytest.raises(ValueError):
        ch.KrausChannel(ops=(0.5 * np.eye(2),), p=None, source="custom")


def test_extend_at_index_out_of_range():
    with pytest.raises(ValueError):
        ch.extend([np.eye(2)], [np.eye(2)], at_index=3)


def test_identity_report_json_serializable():
    import json

    report = ch.find_identity(spin(1), 2)  # has unidentifiable entries
    text = json.dumps(report.to_json())
    assert "NaN" not in text


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
