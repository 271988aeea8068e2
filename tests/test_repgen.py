import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import liechan
from liechan import matcore as mc
from liechan import repgen as rg
from tests.conftest import clifford, g2, spin, su, su_tensors

PAULI = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


# ---------------------------------------------------------------------------
# su(n)

def test_gell_mann_n2_is_pauli():
    g = su(2)
    for built, pauli in zip(g.generators, PAULI):
        np.testing.assert_allclose(built, pauli, atol=1e-15)
    assert g.Z == pytest.approx(3.0)


def test_gell_mann_n3_casimir():
    g = su(3)
    assert g.k == 8
    total = sum(x @ x for x in g.generators)
    np.testing.assert_allclose(total, (16.0 / 3.0) * np.eye(3), atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_gell_mann_normalizations(n):
    g = su(n)
    assert g.k == n * n - 1
    total = sum(x @ x for x in g.generators)
    assert mc.max_abs(total - (2.0 * (n * n - 1) / n) * np.eye(n)) < 1e-9
    for a, xa in enumerate(g.generators):
        assert abs(np.trace(xa)) < 1e-12
        for b, xb in enumerate(g.generators):
            expect = 2.0 if a == b else 0.0
            assert abs(np.trace(xa @ xb) - expect) < 1e-12


def test_gell_mann_rejects_small_n():
    with pytest.raises(ValueError):
        rg.gell_mann(1)


def test_structure_tensors_n2():
    t = su_tensors(2)
    assert mc.max_abs(t.d_sym) < 1e-12
    eps = np.zeros((3, 3, 3))
    for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k] = 1.0
        eps[j, i, k] = -1.0
    np.testing.assert_allclose(t.f, eps, atol=1e-12)


def test_structure_tensors_d118():
    t = su_tensors(3)
    assert t.d_sym[0, 0, 7] == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_structure_contractions(n):
    t = su_tensors(n)
    k = n * n - 1
    ff = np.einsum("ijm,ljm->il", t.f, t.f)
    assert mc.max_abs(ff - n * np.eye(k)) < 1e-8
    qq = np.einsum("ijm,ljm->il", t.Q, t.Q)
    assert mc.max_abs(qq + (4.0 / n) * np.eye(k)) < 1e-8
    assert mc.max_abs(np.einsum("iik->k", t.d_sym)) < 1e-9


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_product_identity_reconstruction(n):
    g = su(n)
    t = su_tensors(n)
    worst = 0.0
    for i, xi in enumerate(g.generators):
        for j, xj in enumerate(g.generators):
            recon = t.beta * (i == j) * np.eye(n) + sum(
                t.Q[i, j, k] * xk for k, xk in enumerate(g.generators)
            )
            worst = max(worst, mc.max_abs(xi @ xj - recon))
    assert worst < 1e-9


@pytest.mark.parametrize("n", [2, 3, 4])
def test_structure_residuals_within_tolerance(n):
    rows = rg.structure_residuals(su(n), su_tensors(n))
    assert [name for name, _, _ in rows] == [
        "f_contraction", "Q_contraction", "d_traceless", "product_identity",
    ]
    assert all(residual <= tol for _, residual, tol in rows)


def test_structure_residuals_see_perturbed_q():
    t = su_tensors(3)
    q = t.Q.copy()
    q[0, 1, 2] += 1e-6
    bad = rg.StructureTensors(n=3, beta=t.beta, f=t.f, d_sym=t.d_sym, Q=q)
    rows = {name: (res, tol) for name, res, tol in rg.structure_residuals(su(3), bad)}
    res, tol = rows["product_identity"]
    assert res > tol


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_structure_tensors_equal_the_commutator_einsums(n):
    # the former definition: contract [X_i, X_j] and {X_i, X_j} with X_k
    g, t = su(n), su_tensors(n)
    x = g.generators
    prod = np.einsum("iab,jbc->ijac", x, x)
    f = (np.einsum("ijab,kba->ijk", prod - prod.transpose(1, 0, 2, 3), x) * (-0.25j)).real
    d_sym = (np.einsum("ijab,kba->ijk", prod + prod.transpose(1, 0, 2, 3), x) * 0.25).real
    assert t.f.tobytes() == f.tobytes()
    # Both sides add the same 2 n^3 products X_i X_j X_k / 4, each a product
    # of two complex multiplications (off by at most 2 sqrt(5) u < 5u
    # relative, u = 2^-53), through n - 1, then n^2 - 1, then one more
    # additions.  So each side is within gamma_(n^2 + n + 4) S of the exact
    # value, S = (A_ijk + A_jik)/4 with A = sum |X_i| |X_j| |X_k| entrywise,
    # and the two within twice that; f agrees bitwise, so Q differs only in d.
    u = np.finfo(float).eps / 2
    m = n * n + n + 4
    a = np.einsum("iab,jbc,kca->ijk", *(np.abs(x),) * 3, optimize=True)
    bound = 2 * m * u / (1 - m * u) * (a + a.transpose(1, 0, 2)) / 4
    assert np.all(np.abs(t.d_sym - d_sym) <= bound)
    assert np.all(np.abs(t.Q - (d_sym + 1j * f)) <= bound)


def test_structure_tensors_peak_at_su8():
    # alive at the peak: the pair table, T and the complex f and d before
    # their real parts, 2.27 output sizes when measured
    g = su(8)
    rg.structure_tensors(g)   # first call outside the trace: lazy imports and caches
    tracemalloc.start()
    try:
        t = rg.structure_tensors(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.0 * (t.f.nbytes + t.d_sym.nbytes + t.Q.nbytes)


def test_d_tensor_fully_symmetric():
    t = su_tensors(3)
    assert mc.max_abs(t.d_sym - t.d_sym.transpose(1, 0, 2)) < 1e-12
    assert mc.max_abs(t.d_sym - t.d_sym.transpose(2, 1, 0)) < 1e-12
    assert mc.max_abs(t.f + t.f.transpose(1, 0, 2)) < 1e-12


# ---------------------------------------------------------------------------
# Spin representations

def test_spin_half_is_half_pauli():
    g = spin(1)
    for built, pauli in zip(g.generators, PAULI):
        np.testing.assert_allclose(built, pauli / 2.0, atol=1e-15)
    assert g.Z == pytest.approx(0.75)


def test_spin_one_matrices_explicit():
    g = spin(2)
    r = 1.0 / np.sqrt(2.0)
    j1 = np.array([[0, r, 0], [r, 0, r], [0, r, 0]])
    j2 = np.array([[0, -1j * r, 0], [1j * r, 0, -1j * r], [0, 1j * r, 0]])
    j3 = np.diag([1.0, 0.0, -1.0])
    np.testing.assert_allclose(g.generators[0], j1, atol=1e-15)
    np.testing.assert_allclose(g.generators[1], j2, atol=1e-15)
    np.testing.assert_allclose(g.generators[2], j3, atol=1e-15)
    assert g.Z == pytest.approx(2.0)


def test_spin_three_half_trace_form():
    g = spin(3)
    for a in range(3):
        for b in range(3):
            expect = 5.0 if a == b else 0.0
            assert abs(np.trace(g.generators[a] @ g.generators[b]) - expect) < 1e-12


@pytest.mark.parametrize("two_s", range(1, 9))
def test_spin_commutation(two_s):
    g = spin(two_s)
    eps = np.zeros((3, 3, 3))
    for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k] = 1.0
        eps[j, i, k] = -1.0
    for a in range(3):
        for b in range(3):
            expect = 1j * sum(eps[a, b, c] * g.generators[c] for c in range(3))
            assert mc.max_abs(mc.commutator(g.generators[a], g.generators[b]) - expect) < 1e-10


def test_spin_rejects_zero():
    with pytest.raises(ValueError):
        rg.spin_rep(0)


# ---------------------------------------------------------------------------
# Octonions and g2

def test_octonion_unit():
    t = rg.octonion_table()
    e = np.eye(8)
    for j in range(8):
        np.testing.assert_array_equal(rg.octonion_multiply(e[0], e[j], t), e[j])
        np.testing.assert_array_equal(rg.octonion_multiply(e[j], e[0], t), e[j])


def test_octonion_imaginary_squares():
    t = rg.octonion_table()
    e = np.eye(8)
    for i in range(1, 8):
        np.testing.assert_array_equal(rg.octonion_multiply(e[i], e[i], t), -e[0])


def test_octonion_alternativity_and_nonassociativity():
    t = rg.octonion_table()
    e = np.eye(8)

    def mul(x, y):
        return rg.octonion_multiply(x, y, t)

    rng = np.random.default_rng(11)
    for _ in range(25):
        x = rng.normal(size=8)
        y = rng.normal(size=8)
        assert mc.max_abs(mul(mul(x, x), y) - mul(x, mul(x, y))) < 1e-12
        assert mc.max_abs(mul(mul(x, y), y) - mul(x, mul(y, y))) < 1e-12
    assoc = mul(mul(e[1], e[2]), e[4]) - mul(e[1], mul(e[2], e[4]))
    assert mc.max_abs(assoc) > 1.0


def test_octonion_norm_multiplicative():
    t = rg.octonion_table()
    rng = np.random.default_rng(12)
    for _ in range(10):
        x = rng.normal(size=8)
        y = rng.normal(size=8)
        prod = rg.octonion_multiply(x, y, t)
        assert abs(np.linalg.norm(prod) - np.linalg.norm(x) * np.linalg.norm(y)) < 1e-9


def test_g2_casimir_and_trace_form():
    g = g2()
    assert (g.d, g.k) == (7, 14)
    total = sum(b @ b for b in g.generators)
    assert mc.max_abs(total - np.eye(7)) < 1e-9
    for a in range(14):
        for b in range(14):
            expect = 0.5 if a == b else 0.0
            assert abs(np.trace(g.generators[a] @ g.generators[b]) - expect) < 1e-9


def test_g2_generators_hermitian_traceless():
    g = g2()
    for b in g.generators:
        assert mc.is_hermitian(b, 1e-12)
        assert abs(np.trace(b)) < 1e-12


def test_g2_commutators_close_in_span():
    # [beta_a, beta_b] must be expressible in the beta span: a Lie algebra.
    g = g2()
    stack = np.stack(g.generators)
    basis = stack.reshape(14, -1).T  # 49 x 14
    worst = 0.0
    for a in range(14):
        for b in range(a + 1, 14):
            target = (1j * mc.commutator(g.generators[a], g.generators[b])).ravel()
            design = np.vstack([basis.real, basis.imag])
            rhs = np.concatenate([target.real, target.imag])
            _, res, *_ = np.linalg.lstsq(design, rhs, rcond=None)
            resid = np.sqrt(res[0]) if len(res) else 0.0
            worst = max(worst, resid)
    assert worst < 1e-8


def _reference_derivation(x, y, t):
    """D(x, y) column by column: [[x,y],a] - 3((xy)a - x(ya)) for a = e_j."""
    def mul(u, w):
        return rg.octonion_multiply(u, w, t)

    com = mul(x, y) - mul(y, x)
    out = np.zeros((8, 8))
    for j, a in enumerate(np.eye(8)):
        out[:, j] = mul(com, a) - mul(a, com) - 3.0 * (mul(mul(x, y), a) - mul(x, mul(y, a)))
    return out


def test_g2_generators_bitwise_equal_to_column_construction():
    t = rg.octonion_table()
    e = np.eye(8)
    d = {(i, j): 0.5 * _reference_derivation(e[i], e[j], t)[1:, 1:]
         for i in range(1, 8) for j in range(i + 1, 8)}
    m_basis = [d[(1, i)] for i in range(2, 8)]
    h_basis = [
        d[(1, 2)] + 2 * d[(4, 7)], d[(1, 3)] - 2 * d[(4, 6)], d[(1, 4)] - 2 * d[(2, 7)],
        d[(1, 5)] + 2 * d[(2, 6)], d[(1, 6)] - 2 * d[(2, 5)], d[(1, 7)] + 2 * d[(2, 4)],
        math.sqrt(3.0) * d[(2, 3)], d[(2, 3)] + 2 * d[(4, 5)],
    ]
    expect = ([(1j / math.sqrt(24.0)) * b for b in m_basis]
              + [(1j / math.sqrt(72.0)) * b for b in h_basis])
    g = rg.g2_rep()
    assert [b.tobytes() for b in g.generators] == [
        np.asarray(b, dtype=np.complex128).tobytes() for b in expect]
    assert (g.N, g.Z) == (1.0 / 14.0, 1.0)


def test_g2_leibniz_check_rejects_a_flipped_sign(monkeypatch):
    t = rg.octonion_table()
    t[1, 2, 3] = -t[1, 2, 3]  # e_1 e_2 = -e_3 = e_2 e_1: no longer alternative
    monkeypatch.setattr(rg, "octonion_table", lambda: t)
    with pytest.raises(ArithmeticError, match="D\\(ab\\)"):
        rg.g2_rep()


# ---------------------------------------------------------------------------
# Clifford algebra

def test_gamma_pairwise_anticommute():
    g, _ = clifford()
    g1, g2_, g3, g4 = g.generators
    assert mc.max_abs(g1 @ g2_ + g2_ @ g1) < 1e-14
    np.testing.assert_allclose(g1 @ g1, np.eye(4), atol=1e-14)
    np.testing.assert_allclose(g4 @ g4, np.eye(4), atol=1e-14)


def test_gamma_bilinear_relation_random():
    g, _ = clifford()
    for i in range(50):
        rng = mc.derived_rng(13, i)
        x = rng.normal(size=4)
        y = rng.normal(size=4)
        gx = rg.clifford_gamma(x, g)
        gy = rg.clifford_gamma(y, g)
        lhs = gx @ gy + gy @ gx
        assert mc.max_abs(lhs - rg.clifford_bilinear(x, y) * np.eye(4)) < 1e-10


def test_antisymmetrized_basis_independent():
    _, basis = clifford()
    assert len(basis) == 16
    gram = np.array([[np.trace(a.conj().T @ b) for b in basis] for a in basis])
    assert np.linalg.matrix_rank(gram, tol=1e-8) == 16


def test_clifford_basis_bitwise_equal_to_signed_permutation_average():
    g, basis = clifford()
    gammas = g.generators

    def antisymmetrized(mats):
        total = np.zeros((4, 4), dtype=np.complex128)
        for perm in itertools.permutations(range(len(mats))):
            inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(perm)), 2))
            acc = mats[perm[0]]
            for i in perm[1:]:
                acc = acc @ mats[i]
            total += (-1) ** inversions * acc
        return total / math.factorial(len(mats))

    expect = [np.eye(4, dtype=np.complex128)] + list(gammas) + [
        antisymmetrized([gammas[i] for i in idx])
        for r in (2, 3, 4) for idx in itertools.combinations(range(4), r)]
    assert [b.tobytes() for b in basis] == [b.tobytes() for b in expect]


def test_clifford_weyl_is_a_traceless_generator_set():
    g = rg.clifford_weyl()
    assert isinstance(g, rg.GeneratorSet) and (g.algebra, g.d, g.k) == (rg.CLIFFORD_WEYL, 4, 4)
    assert g.residuals["traceless"] == 0.0
    shifted = g.generators + 1e-6 * np.eye(4)      # Hermitian, but tr = 4e-6
    with pytest.raises(ValueError, match="traceless"):
        rg.GeneratorSet(algebra=rg.CLIFFORD_WEYL, generators=shifted, N=g.N, Z=g.Z)


def test_clifford_basis_needs_the_clifford_set():
    with pytest.raises(ValueError, match="Clifford generator set"):
        rg.clifford_basis(su(2))


def test_basis_rank_sees_dependent_element():
    _, basis = clifford()
    assert rg.basis_rank(basis) == 16
    assert rg.basis_rank(basis[:15] + (2.0 * basis[1],)) == 15


# ---------------------------------------------------------------------------
# Casimir constant

@pytest.mark.parametrize("two_s", [1, 2, 3, 4, 6])
def test_casimir_spin(two_s):
    s = two_s / 2.0
    assert rg.GeneratorSet.from_generators(spin(two_s).generators).Z == pytest.approx(s * (s + 1.0))


def test_from_generators_pauli():
    g = rg.GeneratorSet.from_generators(PAULI)
    assert g.algebra == rg.CUSTOM
    assert g.N == pytest.approx(1.0)
    assert g.Z == pytest.approx(3.0)


def test_from_generators_empty_raises_value_error():
    with pytest.raises(ValueError, match="at least one generator"):
        rg.GeneratorSet.from_generators([])


def test_from_generators_unequal_blocks_not_scalar():
    a, b = spin(2).generators, spin(1).generators
    combined = [np.block([[x, np.zeros((3, 2))], [np.zeros((2, 3)), y]]) for x, y in zip(a, b)]
    with pytest.raises(rg.NotScalarError):
        rg.GeneratorSet.from_generators(combined)


def test_from_generators_measures_once(monkeypatch):
    calls = {"generator_residuals": 0, "_gram": 0}
    for name in calls:
        original = getattr(rg, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(rg, name, counted)
    g = rg.GeneratorSet.from_generators(su(3).generators)
    assert calls == {"generator_residuals": 1, "_gram": 1}
    assert g.Z == pytest.approx(su(3).Z, abs=1e-14) and g.N == pytest.approx(su(3).N, abs=1e-14)


def test_non_hermitian_generators_rejected():
    bad = [np.array([[0, 1], [0, 0]], dtype=complex)]
    with pytest.raises(ValueError):
        rg.GeneratorSet.from_generators(bad)


@pytest.mark.parametrize("build", [lambda: su(4), lambda: spin(3), g2, lambda: clifford()[0]])
def test_generator_residuals_stored_on_construction(build):
    g = build()
    assert g.residuals == rg.generator_residuals(g.generators, g.Z, g.N)
    assert set(g.residuals) == {
        "hermiticity", "traceless", "casimir_deviation", "trace_form_deviation",
    }
    assert max(g.residuals.values()) <= 1e-9


def test_generator_residuals_are_read_only():
    g = su(3)
    with pytest.raises(TypeError):
        g.residuals["casimir_deviation"] = 0.0
    assert dict(g.residuals) == rg.generator_residuals(g.generators, g.Z, g.N)


def test_scaled_generator_breaks_casimir():
    g = su(3)
    gens = list(g.generators)
    gens[0] = gens[0] * (1.0 + 1e-6)
    with pytest.raises(rg.NotScalarError):
        rg.GeneratorSet(algebra=rg.CUSTOM, generators=tuple(gens), N=g.N, Z=g.Z)
    assert rg.generator_residuals(gens, g.Z, g.N)["casimir_deviation"] > 1e-9


def test_empty_generator_set_rejected():
    with pytest.raises(ValueError):
        rg.GeneratorSet(algebra=rg.CUSTOM, generators=(), N=1.0, Z=1.0)


def test_no_module_reads_another_modules_private_name():
    import ast

    package = os.path.dirname(liechan.__file__)
    modules = {name[:-3] for name in os.listdir(package) if name.endswith(".py")}
    found = []
    for name in sorted(modules):
        with open(os.path.join(package, name + ".py")) as fh:
            tree = ast.parse(fh.read())
        aliases = set()   # local names bound to sibling modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("liechan")):
                for alias in node.names:
                    if alias.name.startswith("_"):
                        found.append(f"{name}: imports {alias.name}")
                    elif alias.name in modules:
                        aliases.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases and node.attr.startswith("_")):
                found.append(f"{name}: reads {node.value.id}.{node.attr}")
    assert found == []


def test_import_repgen_loads_neither_channel_nor_bloch():
    # the package root imports no submodule, and repgen needs only matcore
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(liechan.__file__)))
    script = ("import sys, liechan.repgen; print(sorted(m for m in sys.modules if m in "
              "('liechan.channel', 'liechan.bloch', 'liechan.textfmt', 'numpy.polynomial')))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout == "[]\n"
