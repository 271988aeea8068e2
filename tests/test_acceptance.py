"""Acceptance suite: one test per acceptance criterion, at the stated
tolerances.  Run with ``pytest tests/test_acceptance.py -v`` to get one
pass/fail line per criterion.

Criterion 6 is split into named sub-checks.  Its quartic-trace clause is
stated as tr((v.beta)^4) = v^4/4, which is a misstatement: no
7-dimensional g2 representation can satisfy it.  Every v.beta is i times
a real antisymmetric matrix with eigenvalues 0, +-a, +-b, +-(a+b), so
tr X^2 = 4(a^2+ab+b^2) and tr X^4 = 4(a^2+ab+b^2)^2 = (tr X^2)^2 / 4 for
every X in the representation.  With tr X^2 = v^2/2 (also required by
criterion 6) this forces tr X^4 = v^4/16.  Sub-check 6d therefore tests
the corrected v^4/16; 1/16 is also the only ratio from which the radius
chain of sub-check 6e follows (1/4 would give 12.15 in place of
8(10 - sqrt(65)) = 15.50).
"""

import math

import numpy as np
import pytest

from liechan import bloch as bl
from liechan import channel as ch
from liechan import matcore as mc
from tests.conftest import clifford, g2, spin, su, su_tensors
from tests.test_channel import random_unit_trace_vw


def _report(criterion: str):
    print(f"acceptance {criterion}: PASS")


# ---------------------------------------------------------------------------
# 1. su(n) depolarizing factor and critical value

def test_c01_su_n_depolarizing_factor():
    for n in (2, 3, 4, 5):
        g = su(n)
        for p in (0.0, 0.25, 0.5, 0.75, 1.0):
            channel = ch.build_channel(g, p)
            lam = ch.su_n_factor(p, n)
            for i in range(20):
                rho = mc.random_density(n, mc.derived_rng(101, 100 * n + i)).matrix
                out = ch.apply_matrix(channel, rho)
                dev = mc.max_abs(out - (lam * rho + (1.0 - lam) / n * np.eye(n)))
                assert dev <= 1e-9, f"n={n} p={p} deviation {dev:.2e}"
        critical = ch.build_channel(g, ch.su_n_critical(n))
        for i in range(20):
            rho = mc.random_density(n, mc.derived_rng(102, 100 * n + i)).matrix
            dev = mc.max_abs(ch.apply_matrix(critical, rho) - np.eye(n) / n)
            assert dev <= 1e-9, f"n={n} critical map deviation {dev:.2e}"
    _report("1 su(n) depolarizing factor")


# ---------------------------------------------------------------------------
# 2. Structure-tensor contractions

def test_c02_structure_tensor_contractions():
    for n in (2, 3, 4, 5):
        t = su_tensors(n)
        k = n * n - 1
        ff = np.einsum("ijm,ljm->il", t.f, t.f)
        assert mc.max_abs(ff - n * np.eye(k)) <= 1e-8
        qq = np.einsum("ijm,ljm->il", t.Q, t.Q)
        assert mc.max_abs(qq + (4.0 / n) * np.eye(k)) <= 1e-8
        assert mc.max_abs(np.einsum("iik->k", t.d_sym)) <= 1e-9
    _report("2 structure-tensor contractions")


# ---------------------------------------------------------------------------
# 3. Spin-s closed form

def test_c03_spin_closed_form():
    for two_s in range(1, 7):
        g = spin(two_s)
        for i in range(5):
            rng = mc.derived_rng(103, 10 * two_s + i)
            p = rng.uniform(0.0, 1.0)
            v, w = random_unit_trace_vw(two_s, rng)
            v2, w2 = ch.spin_channel_vw(spin(two_s), p, v, w)
            direct = ch.apply_matrix(ch.build_channel(g, p), bl.rho_vw(spin(two_s), v, w))
            assert mc.max_abs(direct - bl.rho_vw(spin(two_s), v2, w2)) <= 1e-8
    # spin-1 specialization
    rng = np.random.default_rng(104)
    v, w = random_unit_trace_vw(2, rng)
    for p in (0.0, 0.3, 0.7, 1.0):
        v2, w2 = ch.spin_channel_vw(spin(2), p, v, w)
        assert mc.max_abs(v2 - (1.0 - p / 2.0) * v) <= 1e-12
        assert mc.max_abs(w2 - ((1.0 - 1.5 * p) * w + (p / 4.0) * np.eye(3))) <= 1e-12
    _report("3 spin-s closed form")


# ---------------------------------------------------------------------------
# 4. Iteration formula

def test_c04_iteration_formula():
    g = spin(2)
    for i in range(10):
        rng = mc.derived_rng(105, i)
        p = rng.uniform(0.0, 1.0)
        _, w = random_unit_trace_vw(2, rng)
        rho = bl.rho_vw(spin(2), np.zeros(3), w)
        channel = ch.build_channel(g, p)
        acc = rho.copy()
        for n in range(1, 7):
            acc = ch.apply_matrix(channel, acc)
            wn = ch.iterate_w_polynomial(p, n).apply_to(w)
            dev = mc.max_abs(acc - bl.rho_vw(spin(2), np.zeros(3), wn))
            assert dev <= 1e-9, f"p={p} n={n} deviation {dev:.2e}"
    _report("4 iteration formula")


# ---------------------------------------------------------------------------
# 5. Special identities and spin-1 critical values

def test_c05_special_identities():
    for two_s in range(1, 7):
        g = spin(two_s)
        lam = g.Z
        r1 = ch.find_identity(g, 1)
        assert r1.special and r1.residual <= 1e-9
        assert abs(r1.g - (lam - 1.0)) <= 1e-9
        assert r1.residual_with(lam - 1.0) <= 1e-9
        r2 = ch.find_identity(g, 2)
        assert r2.special and r2.residual <= 1e-9
        assert r2.residual_with(lam - 3.0) <= 1e-9
        if two_s >= 2:  # for d = 2 the rank-2 monomials cannot pin g down
            assert abs(r2.g - (lam - 3.0)) <= 1e-9
    decomp = ch.critical_values(spin(2), max_rank=2)
    e1, e2 = decomp.entry(1), decomp.entry(2)
    assert e1.p_value == pytest.approx(2.0, abs=1e-12) and not e1.in_range
    assert e2.p_value == pytest.approx(2.0 / 3.0, abs=1e-12) and e2.in_range
    _report("5 special identities")


# ---------------------------------------------------------------------------
# 6. g2 suite

def test_c06a_g2_casimir_and_trace_form():
    g = g2()
    assert mc.max_abs(sum(b @ b for b in g.generators) - np.eye(7)) <= 1e-9
    stack = np.stack(g.generators)
    gram = np.einsum("aij,bji->ab", stack, stack)
    assert mc.max_abs(gram - 0.5 * np.eye(14)) <= 1e-9
    _report("6a g2 casimir and trace form")


def test_c06b_g2_cubic_identity():
    g = g2()
    stack = np.stack(g.generators)
    for a in range(14):
        resid = mc.max_abs(np.einsum("iab,bc,icd->ad", stack, g.generators[a], stack))
        assert resid <= 1e-10
    _report("6b g2 cubic identity")


def test_c06c_g2_channel_scales_bloch_vector():
    g = g2()
    for i in range(20):
        rng = mc.derived_rng(107, i)
        p = rng.uniform(0.0, 1.0)
        v = rng.normal(size=14) * 0.25
        out = ch.apply_matrix(ch.build_channel(g, p), bl.bloch_rho(g, v))
        assert mc.max_abs(out - bl.bloch_rho(g, (1.0 - p) * v)) <= 1e-9
    _report("6c g2 channel bloch scaling")


def test_c06d_g2_trace_identities_as_stated():
    # Stated form: tr(vb)^{1,3,5} = 0, tr(vb)^2 = v^2/2, tr(vb)^4 = v^4/4.
    # The quartic clause is a misstatement.  vb is i times a real
    # antisymmetric 7x7 matrix with eigenvalues 0, +-a, +-b, +-(a+b), so
    # tr(vb)^4 = (tr(vb)^2)^2 / 4 in any normalization; with tr(vb)^2 =
    # v^2/2 that is v^4/16, the ratio the radius chain of 6e also needs.
    g = g2()
    stack = np.stack(g.generators)
    worst4 = 0.0
    worst_free = 0.0
    for i in range(100):
        rng = mc.derived_rng(108, i)
        v = rng.normal(size=14)
        x = float(v @ v)
        vb = np.einsum("a,aij->ij", v, stack)
        p2 = vb @ vb
        p4 = p2 @ p2
        t2 = np.trace(p2).real
        t4 = np.trace(p4).real
        assert abs(np.trace(vb).real) <= 1e-8
        assert abs(np.trace(p2 @ vb).real) <= 1e-8
        assert abs(np.trace(p4 @ vb).real) <= 1e-8
        assert abs(t2 - x / 2.0) <= 1e-8
        worst4 = max(worst4, abs(t4 - x * x / 16.0))
        worst_free = max(worst_free, abs(t4 - t2 * t2 / 4.0))
    assert worst4 <= 1e-8, (
        f"quartic trace deviates from the corrected v^4/16 by {worst4:.3e} "
        "(the stated v^4/4 is impossible for g2: tr(vb)^4 = (tr(vb)^2)^2/4)"
    )
    assert worst_free <= 1e-8, (
        f"quartic trace deviates from (tr(vb)^2)^2/4 by {worst_free:.3e}"
    )
    _report("6d g2 trace identities (quartic clause corrected to v^4/16)")


def test_c06e_g2_bound_chain():
    bounds = bl.g2_bound_refine(g2())
    values = [b.v_squared_bound for b in bounds]
    assert values[0] == pytest.approx(84.0, abs=1e-12)
    assert values[1] == pytest.approx(28.0, abs=1e-12)
    assert values[2] == pytest.approx(8.0 * (10.0 - math.sqrt(65.0)), abs=1e-12)
    _report("6e g2 radius bound chain")


# ---------------------------------------------------------------------------
# 7. Bloch manifolds

def test_c07_spin_ball_membership():
    for two_s in (1, 2, 3, 4):
        g = spin(two_s)
        s = two_s / 2.0
        for i, v in enumerate(bl.sample_bloch_vectors(g, 1000, seed=109 + two_s)):
            lo = float(np.linalg.eigvalsh(bl.bloch_rho(g, v)).min())
            if abs(lo) <= 1e-7:
                continue
            assert bl.membership_eig(g, v) == (np.linalg.norm(v) <= 1.0 / s)
    _report("7 spin-j ball membership")


def test_c07_su3_closed_form_agreement():
    g = su(3)
    t = su_tensors(3)
    for v in bl.sample_bloch_vectors(g, 1000, seed=110):
        lo = float(np.linalg.eigvalsh(bl.bloch_rho(g, v)).min())
        if abs(lo) <= 1e-7:
            continue
        assert bl.su3_membership_closed(v, t) == bl.membership_eig(g, v)
    _report("7 su(3) closed form")


def test_c07_charpoly_oracle_agreement():
    sets = [su(2), su(3), su(4), spin(1), spin(2), spin(3), spin(4), g2(), clifford()[0]]
    for idx, g in enumerate(sets):
        for v in bl.sample_bloch_vectors(g, 1000, seed=111 + idx):
            lo = float(np.linalg.eigvalsh(bl.bloch_rho(g, v)).min())
            if abs(lo) <= 1e-7:
                continue
            assert bl.membership_charpoly(g, v) == bl.membership_eig(g, v)
    _report("7 charpoly oracle agreement")


# ---------------------------------------------------------------------------
# 8. Pure states

def test_c08_pure_state_characterizations():
    g = su(3)
    t = su_tensors(3)
    for i in range(200):
        rng = mc.derived_rng(112, i)
        if i % 2 == 0:
            v = rng.normal(size=8) * rng.uniform(0.0, 1.8)
        else:
            psi = mc.random_pure_statevector(3, rng)
            v = bl.bloch_vector(g, np.outer(psi, psi.conj()))
        rho = bl.bloch_rho(g, v)
        is_pure = mc.max_abs(rho @ rho - rho) <= 1e-9
        assert bl.pure_bloch_test(g, v, t) == is_pure

    grid = np.linspace(0.02, 0.98, 20)
    count = 0
    for u1 in grid:
        w22 = 0.49 * (2.0 * u1 - 1.0)
        lower = max(-w22 + 0.005, -0.49)
        for u2 in grid:
            w33 = lower + u2 * (0.49 - lower)
            p = bl.spin1_pure_family(w22, w33)
            assert mc.max_abs(p @ p - p) <= 1e-10
            assert abs(np.trace(p).real - 1.0) <= 1e-10
            count += 1
    assert count == 400

    for omega in np.linspace(-0.49, 0.49, 50):
        p = bl.spin1_pure_omega(float(omega))
        assert mc.max_abs(p @ p - p) <= 1e-10
        assert abs(np.trace(p).real - 1.0) <= 1e-10

    for i in range(1000):
        psi = mc.random_pure_statevector(3, mc.derived_rng(113, i))
        v, _ = bl.pure_from_psi(psi)
        assert np.linalg.norm(v) <= 0.5 + 1e-12
    _report("8 pure states")


# ---------------------------------------------------------------------------
# 9. Clifford channel

def test_c09_clifford_channel_trace_preserving():
    g, _ = clifford()
    for m in (1, 2, 3, 4):
        rng = mc.derived_rng(114, m)
        xs = [rng.normal(size=4) for _ in range(m)]
        channel = ch.clifford_vector_channel(g, xs)
        for i in range(20):
            rho = mc.random_density(4, mc.derived_rng(115, 100 * m + i)).matrix
            out = ch.apply_matrix(channel, rho)
            assert abs(np.trace(out).real - 1.0) <= 1e-10
    _report("9 clifford channel")


# ---------------------------------------------------------------------------
# 10. Werner-Holevo spectra

def test_c10_werner_holevo_spectra():
    channel = ch.build_channel(spin(2), 1.0)
    for i in range(20):
        rho = mc.random_density(3, mc.derived_rng(116, i))
        ev1 = np.sort(np.linalg.eigvalsh(ch.apply(channel, rho).matrix))
        ev2 = np.sort(np.linalg.eigvalsh(ch.werner_holevo(rho).matrix))
        assert mc.max_abs(ev1 - ev2) <= 1e-9
    _report("10 werner-holevo spectra")


# ---------------------------------------------------------------------------
# 11. Minimal output entropy

def test_c11_min_entropy():
    for n in (2, 3):
        g = su(n)
        for p in (0.2, 0.5, 0.8):
            channel = ch.build_channel(g, p)
            sampled = ch.sampled_min_output_entropy(channel, n_samples=10000, seed=117)
            closed = ch.min_entropy_su_n(p, n)
            assert abs(sampled - closed) <= 1e-6, f"n={n} p={p}"
        pc = ch.su_n_critical(n)
        assert abs(ch.min_entropy_su_n(pc, n) - math.log(n)) <= 1e-9
    _report("11 minimal output entropy")
