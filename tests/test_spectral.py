"""The operator-space core L = sum_i X_i (x) conj(X_i) and the closed forms it
explains: depolarizing factors, the spin (v, w) action, the n-fold spin-1
iteration, the eigenvalue table of ROADMAP's "Every critical probability from
one spectrum" item and the spin purity answer."""

from fractions import Fraction

import numpy as np
import pytest

from liechan import bloch as bl
from liechan import channel as ch
from liechan import matcore as mc
from liechan import repgen as rg
from tests.conftest import clifford, g2, spin, su


def traceless_spectrum(g) -> np.ndarray:
    """Eigenvalues of L on the traceless operators, in descending order."""
    d = g.d
    unit = np.eye(d).ravel() / np.sqrt(d)
    w, q = np.linalg.eigh(np.eye(d * d) - np.outer(unit, unit))
    q = q[:, w > 0.5]
    return np.linalg.eigvalsh(q.conj().T @ ch.generator_action(g) @ q)[::-1]


def grouped(values, tol=1e-9) -> list:
    """[(value, multiplicity)] of a sorted spectrum."""
    out = []
    for x in values:
        if out and abs(out[-1][0] - x) < tol:
            out[-1][1] += 1
        else:
            out.append([x, 1])
    return [(v, m) for v, m in out]


def spin_spectrum(two_s) -> list:
    """s(s+1) - l(l+1)/2 with multiplicity 2l + 1 for l = 1..2s."""
    s = two_s / 2.0
    return [(s * (s + 1) - l * (l + 1) / 2.0, 2 * l + 1) for l in range(1, two_s + 1)]


@pytest.mark.parametrize(
    "build", [lambda: su(3), lambda: spin(3), g2, lambda: clifford()[0]],
    ids=["su3", "spin3_2", "g2", "clifford"],
)
def test_superoperator_matches_kraus_application(build):
    g = build()
    channel = ch.build_channel(g, 0.37)
    s = ch.superoperator(channel.ops)
    rng = np.random.default_rng(41)
    for _ in range(3):
        m = rng.normal(size=(g.d, g.d)) + 1j * rng.normal(size=(g.d, g.d))
        out = (s @ m.ravel()).reshape(g.d, g.d)
        assert mc.max_abs(out - ch.apply_matrix(channel, m)) < 1e-12
    core = (1 - 0.37) * np.eye(g.d ** 2) + (0.37 / g.Z) * ch.generator_action(g)
    assert mc.max_abs(s - core) < 1e-12


@pytest.mark.parametrize(
    "build", [lambda: su(4), lambda: spin(4), g2, lambda: clifford()[0]],
    ids=["su4", "spin2", "g2", "clifford"],
)
def test_generator_action_hermitian_with_identity_eigenvalue_z(build):
    g = build()
    action = ch.generator_action(g)
    assert mc.max_abs(action - action.conj().T) < 1e-12
    eye = np.eye(g.d).ravel()
    assert mc.max_abs(action @ eye - g.Z * eye) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_su_n_factor_is_the_single_traceless_eigenvalue(n):
    g = su(n)
    spectrum = grouped(traceless_spectrum(g))
    assert len(spectrum) == 1
    value, mult = spectrum[0]
    assert mult == n * n - 1
    assert value == pytest.approx(-g.Z / (n * n - 1), abs=1e-12)
    for p in (0.0, 0.3, 0.8, 1.0):
        assert ch.su_n_factor(p, n) == pytest.approx(1 - p + p * value / g.Z, abs=1e-12)


@pytest.mark.parametrize("two_s", range(1, 8))
def test_spin_channel_vw_factors_are_rank_1_and_2_eigenvalues(two_s):
    g = spin(two_s)
    spectrum = grouped(traceless_spectrum(g))
    expected = spin_spectrum(two_s)
    assert [m for _, m in spectrum] == [m for _, m in expected]
    assert [v for v, _ in spectrum] == pytest.approx([v for v, _ in expected], abs=1e-10)
    lam, p = g.Z, 0.4
    v = np.array([0.1, -0.2, 0.05])
    w = np.eye(3) / (g.d * lam)
    w0 = np.array([[0.02, 0.01, 0.0], [0.01, -0.03, 0.02], [0.0, 0.02, 0.01]])
    v2, w2 = ch.spin_channel_vw(spin(two_s), p, v, w + w0)
    rank1 = 1 - p + p * spectrum[0][0] / lam            # l = 1
    assert rank1 == pytest.approx(1 - p / lam, abs=1e-12)
    assert mc.max_abs(v2 - rank1 * v) < 1e-12
    if two_s >= 2:                                      # l = 2 exists
        rank2 = 1 - p + p * spectrum[1][0] / lam
        assert rank2 == pytest.approx(1 - 3 * p / lam, abs=1e-12)
        w2_0 = w2 - np.trace(w2) / 3 * np.eye(3)
        assert mc.max_abs(w2_0 - rank2 * w0) < 1e-12


@pytest.mark.parametrize("n", range(1, 7))
def test_iterate_w_polynomial_is_power_of_spin1_rank2_factor(n):
    g = spin(2)
    rank2 = grouped(traceless_spectrum(g))[1]
    assert rank2[1] == 5
    w0 = np.array([[0.05, 0.02, -0.01], [0.02, -0.03, 0.04], [-0.01, 0.04, -0.02]])
    w = np.eye(3) / 6.0 + w0
    rho = bl.rho_vw(spin(2), np.zeros(3), w)
    for p in (0.1, 0.5, 0.9):
        factor = 1 - p + p * rank2[0] / g.Z
        it = ch.iterate_w_polynomial(p, n)
        assert it.value == pytest.approx((1 - factor**n) / 6.0, abs=1e-12)
        wn = it.apply_to(w)
        assert mc.max_abs(wn - (np.eye(3) / 6.0 + factor**n * w0)) < 1e-12
        s = ch.superoperator(ch.build_channel(g, p).ops)
        out = (np.linalg.matrix_power(s, n) @ rho.ravel()).reshape(3, 3)
        assert mc.max_abs(out - bl.rho_vw(spin(2), np.zeros(3), wn)) < 1e-12


@pytest.mark.parametrize(
    "build, z, expected",
    [
        (lambda: su(3), 16 / 3, [(-2 / 3, 8)]),
        (lambda: su(5), 9.6, [(-0.4, 24)]),
        (lambda: spin(2), 2.0, [(1.0, 3), (-1.0, 5)]),
        (lambda: spin(3), 3.75, [(2.75, 3), (0.75, 5), (-2.25, 7)]),
        (g2, 1.0, [(0.5, 7), (0.0, 14), (-1 / 6, 27)]),
        (lambda: clifford()[0], 4.0, [(2.0, 4), (0.0, 6), (-2.0, 4), (-4.0, 1)]),
    ],
    ids=["su3", "su5", "spin1", "spin3_2", "g2", "clifford"],
)
def test_traceless_eigenvalue_table(build, z, expected):
    g = build()
    assert g.Z == pytest.approx(z, abs=1e-12)
    spectrum = grouped(traceless_spectrum(g))
    assert [m for _, m in spectrum] == [m for _, m in expected]
    assert [v for v, _ in spectrum] == pytest.approx([v for v, _ in expected], abs=1e-10)


def test_detect_depolarizing_is_exact():
    for n in (2, 3, 5, 8):
        channel = ch.build_channel(su(n), 0.37)
        assert ch.detect_depolarizing(channel) == pytest.approx(ch.su_n_factor(0.37, n), abs=1e-14)
    assert ch.detect_depolarizing(ch.build_channel(g2(), 0.5)) is None
    assert ch.detect_depolarizing(ch.build_channel(clifford()[0], 0.5)) is None
    # a depolarizing channel bent by a unitary rotation of size 1e-6 is not
    # depolarizing, however its sampled outputs look
    rot = np.diag(np.exp(1j * np.array([0.0, 1e-6])))
    ops = [rot @ k for k in ch.build_channel(su(2), 0.37).ops]
    bent = ch.KrausChannel(ops=tuple(ops))
    assert ch.detect_depolarizing(bent) is None
    # on 1 x 1 matrices every lambda fits, so none is reported
    trivial = ch.KrausChannel(ops=(np.eye(1),))
    assert ch.detect_depolarizing(trivial) is None


@pytest.mark.parametrize(
    "build, rank, dim",
    [(lambda: su(3), 1, 8), (lambda: spin(2), 2, 5), (lambda: spin(3), 2, 5), (g2, 1, 14)],
    ids=["su3_r1", "spin1_r2", "spin3_2_r2", "g2_r1"],
)
def test_traceless_basis_is_orthonormal_eigenbasis(build, rank, dim):
    g = build()
    report = ch.find_identity(g, rank)
    basis = ch.traceless_basis(mc.sym_monomials(g.generators, rank)[1])
    assert basis.shape == (dim, g.d * g.d)
    assert mc.max_abs(basis @ basis.conj().T - np.eye(dim)) < 1e-12
    images = basis @ ch.generator_action(g).T
    assert mc.max_abs(images - report.g * basis) < 1e-12


def _coherent_weight_above_rank_2(n: int) -> float:
    """1 minus the l = 0, 1, 2 multipole weights of the spin-n/2 coherent
    state, (2l + 1) n!^2 / ((n - l)! (n + l + 1)!), summed exactly."""
    inside = (Fraction(1, n + 1) + Fraction(3 * n, (n + 1) * (n + 2))
              + Fraction(5 * n * (n - 1), (n + 1) * (n + 2) * (n + 3)))
    return float(1 - inside)


@pytest.mark.parametrize(
    "two_s, exact",
    [(1, 0.0), (2, 0.0), (3, 1 / 20), (4, 4 / 35)]
    + [(n, _coherent_weight_above_rank_2(n)) for n in (7, 15, 31, 63)],
)
def test_spin_vw_pure_weight_values(two_s, exact):
    assert bl.spin_vw_pure_weight(two_s) == pytest.approx(exact, abs=1e-15)
    assert bl.spin_vw_purity_search(spin(two_s)) == pytest.approx(exact, abs=1e-12)


def test_spin_vw_purity_search_needs_no_eigendecomposition_of_l(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the witness reads the span from its monomials")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(ch, "generator_action", refuse)
    for two_s in (2, 3, 7):
        assert bl.spin_vw_purity_search(spin(two_s)) == pytest.approx(
            bl.spin_vw_pure_weight(two_s), abs=1e-12)


@pytest.mark.parametrize("drop", [(0, 1), (0, 2), (1, 2)])
def test_spin_vw_purity_search_sees_every_off_diagonal_monomial(monkeypatch, drop):
    # A span that misses one J_(a J_b), a != b, must move the witness off the
    # closed form; the diagonal |s, s><s, s| has no weight on such a direction.
    # The witness reads the set's table of them, built on a fresh set's first read.
    def without(mats, r, products, _original=rg.sym_monomials):
        multisets, monomials = _original(mats, r, products)
        keep = [j for j, m in enumerate(multisets) if m != drop]
        return tuple(multisets[j] for j in keep), monomials[keep]

    monkeypatch.setattr(rg, "sym_monomials", without)
    for two_s in (2, 3, 7, 15):
        assert abs(bl.spin_vw_purity_search(rg.spin_rep(two_s)) - bl.spin_vw_pure_weight(two_s)) > 1e-2


@pytest.mark.parametrize("two_s", range(3, 8))
def test_spin_vw_pure_weight_against_projected_gradient_descent(two_s):
    # Maximize the weight ||P vec(psi psi^dag)||^2 inside the (v, w) span by
    # projected gradient ascent over unit psi from seeded random starts.
    # Every iterate is a pure state, so its outside weight may not drop
    # below the closed form (up to 1e-12 of round-off); the best must reach it.
    g = spin(two_s)
    d = g.d
    evals, evecs = np.linalg.eigh(ch.generator_action(g))
    span = evecs[:, evals > g.Z - 4.5]
    proj = span @ span.conj().T
    exact = bl.spin_vw_pure_weight(two_s)
    rng = np.random.default_rng(100 + two_s)
    lowest = best = np.inf
    for _ in range(6):
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi /= np.linalg.norm(psi)
        for _ in range(120):
            r = np.outer(psi, psi.conj()).ravel()
            rest = r - proj @ r
            lowest = min(lowest, np.vdot(rest, rest).real)
            psi = psi + 2.0 * (proj @ r).reshape(d, d) @ psi
            psi /= np.linalg.norm(psi)
        r = np.outer(psi, psi.conj()).ravel()
        rest = r - proj @ r
        best = min(best, np.vdot(rest, rest).real)
    assert lowest >= exact - 1e-12
    assert best - exact <= 1e-6
