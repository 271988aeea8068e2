import copy
import json
from fractions import Fraction

import numpy as np
import pytest

from liechan import bloch as bl
from liechan import channel as ch
from liechan import matcore as mc
from liechan import repgen as rg
from liechan import verify
from liechan.cli import main


@pytest.mark.parametrize(
    "algebra, size",
    [
        ("su", {"n": 3}),
        ("spin", {"two_s": 2}),
        ("spin", {"two_s": 3}),
        ("g2", {}),
        ("clifford", {}),
    ],
)
def test_run_suite_matches_cli_report(tmp_path, algebra, size):
    checks, info = verify.run_suite(rg.build_algebra(algebra, **size), seed=4)
    argv = ["verify", "--algebra", algebra, "--seed", "4"]
    for key, value in size.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [c["name"] for c in checks] == [c["name"] for c in report["checks"]]
    assert checks == report["checks"]
    assert info == report["info"]
    assert all(c["pass"] for c in checks)


def test_run_suite_rejects_unknown_algebra():
    custom = rg.GeneratorSet.from_generators(rg.gell_mann(2).generators)
    assert custom.algebra == rg.CUSTOM
    for part in (verify.run_suite, verify.measure, lambda g: verify.seeded_checks(g, 0)):
        with pytest.raises(ValueError, match="no identity suite for algebra 'custom'"):
            part(custom)


@pytest.mark.parametrize(
    "algebra, size, seeded",
    [
        ("su", {"n": 3}, []),
        ("spin", {"two_s": 1}, ["vw_closed_form"]),
        ("spin", {"two_s": 2}, ["vw_closed_form", "iteration_formula"]),
        ("g2", {}, ["bloch_scaling"]),
        ("clifford", {}, ["vector_channel_trace_preserving"]),
    ],
)
def test_run_suite_is_the_merge_of_its_two_parts(algebra, size, seeded):
    g = rg.build_algebra(algebra, **size)
    measured = verify.measure(g)
    for seed in (0, 7, 2**63 + 5):
        rows = verify.seeded_checks(g, seed)
        assert [c["name"] for c in rows] == seeded
        checks, info = verify.run_suite(g, seed)
        assert (checks, info) == verify.merge(measured, rows)


WARM_SETS = ([("su", ["--n", str(n)]) for n in (2, 3, 4, 5)]
             + [("spin", ["--two-s", str(two_s)]) for two_s in (1, 2, 3, 4, 5, 6, 7, 15)]
             + [("g2", []), ("clifford", [])])


@pytest.mark.parametrize("algebra, size", WARM_SETS, ids=[" ".join([a, *s]) for a, s in WARM_SETS])
def test_warm_verify_writes_the_cold_bytes(tmp_path, monkeypatch, algebra, size):
    # the CLI measures a set on its first verify and runs only the seeded
    # checks on later seeds; every report is the one a fresh memo writes
    from liechan import cli

    measures = []
    real = verify.measure
    monkeypatch.setattr(verify, "measure", lambda g: measures.append(g) or real(g))

    def report(seed):
        out = tmp_path / "report.json"
        code = main(["verify", "--algebra", algebra, *size, "--seed", str(seed), "--out", str(out)])
        return code, out.read_bytes()

    seeds = (0, 3, 11, 2**63 + 5)
    cold = {}
    for seed in seeds:
        monkeypatch.setattr(cli, "_GENSETS", {})
        cold[seed] = report(seed)
    assert len(measures) == len(seeds)
    monkeypatch.setattr(cli, "_GENSETS", {})
    report(7)
    for seed in seeds:
        assert report(seed) == cold[seed]
    assert len(measures) == len(seeds) + 1
    assert cold[0][0] == 0


def test_g2_suite_reports_generator_residuals():
    from liechan import repgen as rg

    g = rg.g2_rep()
    checks, _ = verify.run_suite(g)
    residuals = g.residuals
    by_name = {c["name"]: c["residual"] for c in checks}
    assert by_name["casimir_identity"] == residuals["casimir_deviation"]
    assert by_name["trace_orthonormality"] == residuals["trace_form_deviation"]


def test_su_and_clifford_suites_read_stored_measurements(monkeypatch):
    from liechan import repgen as rg

    calls = {"structure_residuals": 0, "basis_rank": 0}
    for name in calls:
        original = getattr(rg, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(rg, name, counted)
    g = rg.gell_mann(3)
    checks, _ = verify.run_suite(g)
    assert calls["structure_residuals"] == 1     # inside structure_tensors only
    assert checks[:4] == [verify._check(*row) for row in rg.structure_tensors(g).residuals]
    g = rg.clifford_weyl()
    assert calls["basis_rank"] == 0              # the build measures no basis
    for runs in (1, 2):
        checks, _ = verify.run_suite(g)
        assert calls["basis_rank"] == runs       # once per Clifford verify
        assert {c["name"]: c["residual"] for c in checks}["basis_rank_16"] == 0.0


@pytest.mark.parametrize("algebra, size",
                         [("su", {"n": 4}), ("spin", {"two_s": 3}), ("g2", {}), ("clifford", {})])
def test_run_suite_on_a_given_set_builds_nothing(monkeypatch, algebra, size):
    g = rg.build_algebra(algebra, **size)
    expected = verify.run_suite(rg.build_algebra(algebra, **size), seed=5)

    def refuse(*args, **kwargs):
        raise AssertionError("the suite built a generator set")

    for name in ("gell_mann", "spin_rep", "g2_rep", "clifford_weyl", "build_algebra"):
        monkeypatch.setattr(rg, name, refuse)
    assert verify.run_suite(g, seed=5) == expected


def test_structure_tensors_on_a_given_set():
    g = rg.gell_mann(3)
    t, fresh = rg.structure_tensors(g), rg.structure_tensors(rg.gell_mann(3))
    for name in ("f", "d_sym", "Q"):
        assert getattr(t, name).tobytes() == getattr(fresh, name).tobytes()
    assert t.residuals == fresh.residuals
    assert (t.n, t.beta) == (3, 2.0 / 3)
    for wrong in (rg.spin_rep(2), rg.g2_rep(), rg.clifford_weyl()):
        with pytest.raises(ValueError, match="defining representation"):
            rg.structure_tensors(wrong)


def test_spin_suite_reports_exact_pure_weight():
    from liechan import bloch as bl

    for two_s in (1, 2, 3, 4):
        checks, info = verify.run_suite(rg.spin_rep(two_s))
        by_name = {c["name"]: c for c in checks}
        assert by_name["vw_pure_weight_witness"]["pass"]
        assert by_name["vw_pure_weight_witness"]["tolerance"] == 1e-12
        assert info["vw_pure_weight_min"] == bl.spin_vw_pure_weight(two_s)
        assert "vw_purity_search_min" not in info


@pytest.mark.parametrize("two_s", [3, 4, 7])
def test_spin_suite_passes_in_a_rotated_basis(two_s):
    # U J_a U^dag for a seeded random unitary U is the same representation in
    # another basis; the witness's coherent state must come from these J, not
    # from J_3 = diag(s, ..., -s)
    g = rg.spin_rep(two_s)
    rng = np.random.default_rng(5)
    u, _ = np.linalg.qr(rng.normal(size=(g.d, g.d)) + 1j * rng.normal(size=(g.d, g.d)))
    rotated = rg.GeneratorSet.from_generators(u @ g.generators @ u.conj().T, algebra=rg.SU2_SPIN)
    checks, _ = verify.run_suite(rotated)
    assert [c["name"] for c in checks if not c["pass"]] == []


@pytest.mark.parametrize("algebra, size", [("su", {"n": 2}), ("su", {"n": 4}), ("clifford", {})])
def test_su_and_clifford_suites_draw_no_random_density(monkeypatch, algebra, size):
    def refuse(*args, **kwargs):
        raise AssertionError("the suite drew a random density matrix")

    monkeypatch.setattr(mc, "random_density", refuse)
    checks, _ = verify.run_suite(rg.build_algebra(algebra, **size), seed=3)
    assert all(c["pass"] for c in checks)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_su_depolarizing_residual_is_pinned_rank1_misfit(n):
    g = rg.gell_mann(n)
    stack = np.stack(g.generators)
    images = np.einsum("iab,xbc,icd->xad", stack, stack, stack)   # L X_a = sum_i X_i X_a X_i
    # tr(X_a X_b) = 2 delta_ab puts every traceless operator in one eigenspace of L, at -2/n
    assert mc.max_abs(images + (2.0 / n) * stack) <= 1e-14
    checks, _ = verify.run_suite(g)
    by_name = {c["name"]: c for c in checks}
    rank1 = ch.find_identity(g, 1)
    assert by_name["depolarizing_factor"]["residual"] == rank1.residual_with(g.Z * ch.su_n_factor(1.0, n))
    assert by_name["critical_map_to_uniform"]["residual"] == rank1.residual_with(
        g.Z - g.Z / ch.su_n_critical(n))
    for name in ("depolarizing_factor", "critical_map_to_uniform"):
        assert by_name[name]["residual"] <= 1e-14
        assert by_name[name]["tolerance"] == 1e-9


@pytest.mark.parametrize("n", [2, 3, 5])
def test_su_pinned_residual_bounds_the_channel_error(n):
    # The docstring bound of verify._su, on a perturbed L that keeps L I = Z I:
    # every entry of ch_p(rho) - target is at most sqrt(n/(2(n+1)))/2 p times
    # the pinned residual, for every density rho and p.
    g = rg.gell_mann(n)
    rng = np.random.default_rng(n)
    keep = np.eye(n * n) - np.outer(np.eye(n).ravel(), np.eye(n).ravel()) / n   # 1 - P_0
    noise = rng.normal(size=(n * n, n * n)) + 1j * rng.normal(size=(n * n, n * n))
    action = ch.generator_action(g) + 1e-3 * keep @ noise @ keep
    g0 = g.Z * ch.su_n_factor(1.0, n)
    residual = ch.find_identity(g, 1, action).residual_with(g0)
    assert residual > 1e-4
    bound = np.sqrt(n / (2.0 * (n + 1))) / 2.0
    assert bound < 0.354
    worst = 0.0
    for i in range(200):
        psi = mc.random_pure_statevector(n, mc.derived_rng(n, i))
        rho = np.outer(psi, psi.conj())
        for p in (0.25, 1.0):
            out = (1.0 - p) * rho + (p / g.Z) * (action @ rho.ravel()).reshape(n, n)
            lam = 1.0 - p + p * g0 / g.Z
            err = mc.max_abs(out - lam * rho - (1.0 - lam) * np.eye(n) / n)
            worst = max(worst, err / (p * residual))
    assert worst <= bound * (1.0 + 1e-9)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_su_depolarizing_factor_off_by_1e7_fails(monkeypatch, n):
    original = ch.su_n_factor
    monkeypatch.setattr(ch, "su_n_factor", lambda p, n: original(p, n) + 1e-7)
    checks, _ = verify.run_suite(rg.gell_mann(n))
    by_name = {c["name"]: c for c in checks}
    assert not by_name["depolarizing_factor"]["pass"]
    # the pinned misfit is -1e-7 Z X_a
    g = rg.gell_mann(n)
    largest = max(mc.max_abs(x) for x in g.generators)
    assert by_name["depolarizing_factor"]["residual"] == pytest.approx(1e-7 * g.Z * largest, rel=1e-6)
    assert by_name["critical_map_to_uniform"]["pass"]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_su_critical_off_by_1e7_fails(monkeypatch, n):
    original = ch.su_n_critical
    monkeypatch.setattr(ch, "su_n_critical", lambda n: original(n) + 1e-7)
    checks, info = verify.run_suite(rg.gell_mann(n))
    by_name = {c["name"]: c for c in checks}
    assert not by_name["critical_map_to_uniform"]["pass"]
    # the pinned g = Z - Z/p moves by about Z 1e-7/p^2
    g, pc = rg.gell_mann(n), original(n)
    largest = max(mc.max_abs(x) for x in g.generators)
    expected = 1e-7 * g.Z * largest / pc**2
    assert by_name["critical_map_to_uniform"]["residual"] == pytest.approx(expected, rel=1e-5)
    assert by_name["depolarizing_factor"]["pass"]
    assert info["critical_p"] == original(n) + 1e-7


@pytest.mark.parametrize("algebra, size", [("su", {"n": 4}), ("spin", {"two_s": 3}), ("g2", {})])
def test_suite_builds_the_generator_action_once(monkeypatch, algebra, size):
    g = rg.build_algebra(algebra, **size)
    calls = {"generator_action": 0, "superoperator": 0, "build_channel": 0}
    for name in calls:
        original = getattr(ch, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(ch, name, counted)
    actions, pins, fits = [], [], []
    real_action, real_pin, real_fit = ch.generator_action, ch.pinned_residual, ch.find_identity
    monkeypatch.setattr(ch, "generator_action", lambda g: actions.append(real_action(g)) or actions[-1])
    monkeypatch.setattr(ch, "pinned_residual",
                        lambda g, r, g0, action: pins.append((r, action)) or real_pin(g, r, g0, action))
    monkeypatch.setattr(ch, "find_identity", lambda *args: fits.append(args) or real_fit(*args))
    checks, _ = verify.run_suite(g, seed=2)
    assert all(c["pass"] for c in checks)
    assert calls["generator_action"] == 1
    # every product identity is read at its pinned g through the public name, on the one L
    assert [r for r, _ in pins] == {"su": [1, 1], "spin": [1, 2], "g2": [1]}[algebra]
    assert all(action is actions[0] for _, action in pins)
    assert fits == []   # no suite fits g
    if algebra == "su":
        assert calls["build_channel"] == 0
        assert calls["superoperator"] == 1   # the one inside generator_action


@pytest.mark.parametrize(
    "algebra, size, names",
    [
        ("su", {"n": 3}, ("depolarizing_factor", "critical_map_to_uniform")),
        ("spin", {"two_s": 3}, ("triple_product_identity", "quadruple_product_identity", "vw_closed_form")),
        ("g2", {}, ("cubic_identity",)),
        ("clifford", {}, ("anticommutation",)),
        ("spin", {"two_s": 2}, ("triple_product_identity", "quadruple_product_identity", "vw_closed_form",
                                "iteration_formula")),
    ],
)
def test_pinned_identity_checks_fail_on_a_scaled_generator(monkeypatch, algebra, size, names):
    g = rg.build_algebra(algebra, **size)
    bad = copy.copy(g)   # a copy skips the constructor's checks
    object.__setattr__(bad, "generators", np.concatenate([1.01 * g.generators[:1], g.generators[1:]]))
    if algebra == "su":   # keep the structure-tensor checks, which reject the set, out of the way
        tensors = rg.structure_tensors(g)
        monkeypatch.setattr(rg, "structure_tensors", lambda g: tensors)
    # the sampled checks' Kraus channels reject the set; every suite still returns
    by_name = {c["name"]: c for c in verify.run_suite(bad)[0]}
    assert list(by_name) == [c["name"] for c in verify.run_suite(g)[0]]
    for name in names:
        assert not by_name[name]["pass"]
        assert by_name[name]["residual"] > 1e-3


@pytest.mark.parametrize(
    "shift, names",
    [
        (lambda x: 0.01 * x, ("quadratic_trace", "quartic_trace_ratio_one_sixteenth")),
        # real symmetric: X_0 stays Hermitian, but is no longer i times a real
        # antisymmetric matrix
        (lambda x: 1e-3 * np.diag([1.0, -1.0, 0, 0, 0, 0, 0]), ("odd_trace_powers",)),
    ],
    ids=["scaled", "symmetric"],
)
def test_g2_trace_form_checks_fail_on_a_perturbed_generator(shift, names):
    g = rg.g2_rep()
    bad = copy.copy(g)   # a copy skips the constructor's checks
    x0 = g.generators[0]
    object.__setattr__(bad, "generators", np.concatenate([[x0 + shift(x0)], g.generators[1:]]))
    # the bad set has no normalized Kraus family, so bloch_scaling fails on
    # the normalization deviation and the suite goes on to the trace forms
    checks, info = verify.run_suite(bad)
    by_name = {c["name"]: c for c in checks}
    assert list(by_name) == [c["name"] for c in verify.run_suite(g)[0]]
    for name in names:
        assert not by_name[name]["pass"]
        assert by_name[name]["residual"] > 1e-4
    scaling = by_name["bloch_scaling"]
    assert not scaling["pass"] and scaling["tolerance"] == 1e-9
    deviations = []
    for i in range(5):
        p = mc.derived_rng(0, i).uniform(0.0, 1.0)
        ops = np.concatenate([np.sqrt(1.0 - p) * np.eye(7)[None], np.sqrt(p / bad.Z) * bad.generators])
        deviations.append(ch.normalization_deviation(ops))
    assert scaling["residual"] == max(deviations)
    assert info["depolarizing_on_full_space"] is None
    forms = bl.g2_trace_forms(bad)
    assert forms.kappa2 == Fraction(1, 2) and forms.kappa4 == Fraction(1, 16)


def test_spin_and_g2_residuals_are_find_identity_pinned_bitwise():
    for two_s in (2, 3, 7):
        g = rg.spin_rep(two_s)
        by_name = {c["name"]: c["residual"] for c in verify.run_suite(g)[0]}
        assert by_name["triple_product_identity"] == ch.find_identity(g, 1).residual_with(g.Z - 1.0)
        assert by_name["quadruple_product_identity"] == ch.find_identity(g, 2).residual_with(g.Z - 3.0)
    g = rg.g2_rep()
    by_name = {c["name"]: c["residual"] for c in verify.run_suite(g)[0]}
    assert by_name["cubic_identity"] == ch.find_identity(g, 1).residual_with(0.0)


def test_spin_suite_builds_the_spin_set_once(spin_rep_calls):
    checks, _ = verify.run_suite(rg.spin_rep(2))
    assert all(c["pass"] for c in checks)
    assert spin_rep_calls == [2]


def test_g2_cubic_identity_is_exact_superoperator_residual():
    g = rg.g2_rep()
    stack = np.stack(g.generators)
    direct = max(mc.max_abs(np.einsum("iab,bc,icd->ad", stack, b, stack)) for b in g.generators)
    checks, _ = verify.run_suite(g)
    by_name = {c["name"]: c for c in checks}
    assert by_name["cubic_identity"]["residual"] == pytest.approx(direct, abs=1e-14)
    assert by_name["cubic_identity"]["residual"] <= 1e-12


def test_dependent_clifford_basis_fails_basis_rank_16(tmp_path, monkeypatch):
    from liechan import cli

    # the CLI keeps each set's measurements for the process; a fresh memo
    # measures the faulty basis here
    monkeypatch.setattr(cli, "_GENSETS", {})
    real = rg.clifford_basis

    def dependent(g):
        basis = real(g)
        return basis[:15] + (2.0 * basis[1],)

    monkeypatch.setattr(rg, "clifford_basis", dependent)
    checks, _ = verify.run_suite(rg.clifford_weyl())
    by_name = {c["name"]: c for c in checks}
    assert by_name["basis_rank_16"]["residual"] == 1.0
    assert not by_name["basis_rank_16"]["pass"]
    out = tmp_path / "report.json"
    assert main(["verify", "--algebra", "clifford", "--out", str(out)]) == 1
    assert not json.loads(out.read_text())["passed"]


# ---------------------------------------------------------------------------
# The sampled checks against the per-draw loops they replaced: one
# derived_rng stream, one build_channel, one apply_matrix and one closed
# form per draw.  run_suite evaluates each check as one stack and must
# report the same residual.

def _draw_unit_trace_vw(g, rng):
    d = g.d
    base = np.eye(3) * (1.0 / (d * g.Z))
    dw = rng.normal(size=(3, 3)) * 0.2
    dw = (dw + dw.T) / 2.0
    dw -= np.eye(3) * np.trace(dw) / 3.0
    v = rng.normal(size=3) * 0.2
    w = base + dw
    rho = bl.rho_vw(g, v, w)
    lo = float(np.linalg.eigvalsh(rho).min())
    if lo < 1e-3 / d:
        shrink = 0.5 * (1.0 / d) / max(1.0 / d - lo, 1e-12)
        v = shrink * v
        w = base + shrink * dw
    return v, w


def _vw_closed_form_by_loop(g, seed):
    worst = 0.0
    for i in range(5):
        rng = mc.derived_rng(seed, i)
        p = rng.uniform(0.0, 1.0)
        v, w = _draw_unit_trace_vw(g, rng)
        v2, w2 = ch.spin_channel_vw(g, p, v, w)
        try:
            channel = ch.build_channel(g, p)
        except ch.NormalizationError as exc:
            worst = max(worst, exc.deviation)
            continue
        direct = ch.apply_matrix(channel, bl.rho_vw(g, v, w))
        worst = max(worst, mc.max_abs(direct - bl.rho_vw(g, v2, w2)))
    return worst


def _iteration_formula_by_loop(g, seed):
    worst = 0.0
    for i in range(3):
        rng = mc.derived_rng(seed, 50 + i)
        p = rng.uniform(0.0, 1.0)
        _, w = _draw_unit_trace_vw(g, rng)
        rho = bl.rho_vw(g, np.zeros(3), w)
        try:
            channel = ch.build_channel(g, p)
        except ch.NormalizationError as exc:
            worst = max(worst, exc.deviation)
            continue
        acc = rho.copy()
        for nfold in range(1, 7):
            acc = ch.apply_matrix(channel, acc)
            wn = ch.iterate_w_polynomial(p, nfold).apply_to(w)
            worst = max(worst, mc.max_abs(acc - bl.rho_vw(g, np.zeros(3), wn)))
    return worst


def _bloch_scaling_by_loop(g, seed):
    worst = 0.0
    for i in range(5):
        rng = mc.derived_rng(seed, i)
        p = rng.uniform(0.0, 1.0)
        v = rng.normal(size=14) * 0.2
        try:
            channel = ch.build_channel(g, p)
        except ch.NormalizationError as exc:
            worst = max(worst, exc.deviation)
            continue
        out = ch.apply_matrix(channel, bl.bloch_rho(g, v))
        worst = max(worst, mc.max_abs(out - bl.bloch_rho(g, (1.0 - p) * v)))
    return worst


SAMPLED_SEEDS = (0, 1, 7, 2**63 + 5)


@pytest.mark.parametrize("seed", SAMPLED_SEEDS)
@pytest.mark.parametrize("two_s", [1, 2, 3, 15])
def test_spin_draws_bitwise_equal_to_the_per_draw_loop(two_s, seed):
    # every row, shrunk toward I/d or not, is the one-draw result: the
    # stacked eigvalsh decides each row's shrink as the one-draw eigvalsh does
    g = rg.spin_rep(two_s)
    for indices in (range(5), range(50, 53)):
        ps, v, w, rho = verify._random_unit_trace_vw(g, seed, indices)
        for row, i in enumerate(indices):
            rng = mc.derived_rng(seed, i)
            p = rng.uniform(0.0, 1.0)
            one_v, one_w = _draw_unit_trace_vw(g, rng)
            assert ps[row] == p
            assert v[row].tobytes() == one_v.tobytes() and w[row].tobytes() == one_w.tobytes()
            assert rho[row].tobytes() == bl.rho_vw(g, one_v, one_w).tobytes()


@pytest.mark.parametrize("seed", SAMPLED_SEEDS)
@pytest.mark.parametrize("two_s", [1, 2, 3, 4, 5, 6, 7, 15])
def test_spin_sampled_residuals_equal_the_per_draw_loops(two_s, seed):
    g = rg.spin_rep(two_s)
    by_name = {c["name"]: c["residual"] for c in verify.run_suite(g, seed)[0]}
    assert by_name["vw_closed_form"] == _vw_closed_form_by_loop(g, seed)
    if two_s == 2:
        assert by_name["iteration_formula"] == _iteration_formula_by_loop(g, seed)
    else:
        assert "iteration_formula" not in by_name


@pytest.mark.parametrize("seed", SAMPLED_SEEDS)
def test_g2_sampled_residual_equals_the_per_draw_loop(seed):
    g = rg.g2_rep()
    by_name = {c["name"]: c["residual"] for c in verify.run_suite(g, seed)[0]}
    assert by_name["bloch_scaling"] == _bloch_scaling_by_loop(g, seed)


@pytest.mark.parametrize("two_s, name, first", [(3, "vw_closed_form", 0), (2, "iteration_formula", 50)])
def test_spin_faulty_set_residual_is_the_largest_normalization_deviation(two_s, name, first):
    g = rg.spin_rep(two_s)
    bad = copy.copy(g)   # a copy skips the constructor's checks
    object.__setattr__(bad, "generators", np.concatenate([1.01 * g.generators[:1], g.generators[1:]]))
    by_name = {c["name"]: c for c in verify.run_suite(bad)[0]}
    deviations = []
    for i in range(5 if name == "vw_closed_form" else 3):
        p = mc.derived_rng(0, first + i).uniform(0.0, 1.0)
        ops = np.concatenate([np.sqrt(1.0 - p) * np.eye(g.d)[None], np.sqrt(p / bad.Z) * bad.generators])
        deviations.append(ch.normalization_deviation(ops))
    assert min(deviations) > ch.NORMALIZATION_TOL   # every draw is faulty
    assert by_name[name]["residual"] == max(deviations)
    assert not by_name[name]["pass"]
