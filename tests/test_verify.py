import json

import numpy as np
import pytest

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
    checks, info = verify.run_suite(algebra, seed=4, **size)
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
    with pytest.raises(ValueError, match="unknown algebra"):
        verify.run_suite("so")


def test_g2_suite_reports_generator_residuals():
    from liechan import repgen as rg

    residuals = rg.g2_rep().residuals
    checks, _ = verify.run_suite("g2")
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
    checks, _ = verify.run_suite("su", n=3)
    assert calls["structure_residuals"] == 1     # inside structure_tensors only
    assert checks[:4] == [verify._check(*row) for row in rg.structure_tensors(3).residuals]
    checks, _ = verify.run_suite("clifford")
    assert calls["basis_rank"] == 1              # inside clifford_weyl only
    assert {c["name"]: c["residual"] for c in checks}["basis_rank_16"] == 0.0


@pytest.mark.parametrize("algebra, size", [("su", {"n": 4}), ("spin", {"two_s": 3}), ("g2", {})])
def test_run_suite_on_a_given_set_builds_nothing(monkeypatch, algebra, size):
    g = rg.build_algebra(algebra, **size)
    expected = verify.run_suite(algebra, seed=5, **size)

    def refuse(*args, **kwargs):
        raise AssertionError("the suite built a generator set")

    for name in ("gell_mann", "spin_rep", "g2_rep"):
        monkeypatch.setattr(rg, name, refuse)
    assert verify.run_suite(algebra, seed=5, g=g, **size) == expected


def test_structure_tensors_on_a_given_set():
    g = rg.gell_mann(3)
    t, fresh = rg.structure_tensors(3, g), rg.structure_tensors(3)
    for name in ("f", "d_sym", "Q"):
        assert getattr(t, name).tobytes() == getattr(fresh, name).tobytes()
    assert t.residuals == fresh.residuals
    for wrong in (rg.gell_mann(4), rg.spin_rep(2)):
        with pytest.raises(ValueError, match="defining representation"):
            rg.structure_tensors(3, wrong)


def test_spin_suite_reports_exact_pure_weight():
    from liechan import bloch as bl

    for two_s in (1, 2, 3, 4):
        checks, info = verify.run_suite("spin", two_s=two_s)
        by_name = {c["name"]: c for c in checks}
        assert by_name["vw_pure_weight_witness"]["pass"]
        assert by_name["vw_pure_weight_witness"]["tolerance"] == 1e-12
        assert info["vw_pure_weight_min"] == bl.spin_vw_pure_weight(two_s)
        assert "vw_purity_search_min" not in info


@pytest.mark.parametrize("algebra, size", [("su", {"n": 2}), ("su", {"n": 4}), ("clifford", {})])
def test_su_and_clifford_suites_draw_no_random_density(monkeypatch, algebra, size):
    def refuse(*args, **kwargs):
        raise AssertionError("the suite drew a random density matrix")

    monkeypatch.setattr(mc, "random_density", refuse)
    checks, _ = verify.run_suite(algebra, seed=3, **size)
    assert all(c["pass"] for c in checks)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_su_depolarizing_residual_is_row_sum_norm(n):
    g = rg.gell_mann(n)
    vec_eye = np.eye(n).ravel()
    worst = 0.0
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        s = ch.superoperator(ch.build_channel(g, p).ops)
        ops = [np.sqrt(1.0 - p) * np.eye(n)] + [np.sqrt(p / g.Z) * x for x in g.generators]
        assert mc.max_abs(s - sum(np.kron(k, k.conj()) for k in ops)) <= 1e-15
        lam = ((1.0 - p) * n * n - 1.0) / (n * n - 1.0)
        target = lam * np.eye(n * n) + (1.0 - lam) / n * np.outer(vec_eye, vec_eye)
        worst = max(worst, np.linalg.norm(s - target, np.inf))
    checks, _ = verify.run_suite("su", n=n)
    by_name = {c["name"]: c for c in checks}
    assert by_name["depolarizing_factor"]["residual"] == worst
    assert by_name["depolarizing_factor"]["tolerance"] == 1e-9
    assert by_name["critical_map_to_uniform"]["tolerance"] == 1e-9


@pytest.mark.parametrize("n", [2, 3, 4])
def test_su_depolarizing_factor_off_by_1e7_fails(monkeypatch, n):
    original = ch.su_n_factor
    monkeypatch.setattr(ch, "su_n_factor", lambda p, n: original(p, n) + 1e-7)
    checks, _ = verify.run_suite("su", n=n)
    by_name = {c["name"]: c for c in checks}
    assert not by_name["depolarizing_factor"]["pass"]
    # S - T = -1e-7 (I - vec(I) vec(I)^T/n), whose largest row sum is 2 (n - 1)/n
    assert by_name["depolarizing_factor"]["residual"] == pytest.approx(2e-7 * (n - 1) / n, rel=1e-6)
    assert by_name["critical_map_to_uniform"]["pass"]


def test_spin_suite_builds_the_spin_set_once(spin_rep_calls):
    checks, _ = verify.run_suite("spin", two_s=2)
    assert all(c["pass"] for c in checks)
    assert spin_rep_calls == [2]


def test_g2_cubic_identity_is_exact_superoperator_residual():
    g = rg.g2_rep()
    stack = np.stack(g.generators)
    direct = max(mc.max_abs(np.einsum("iab,bc,icd->ad", stack, b, stack)) for b in g.generators)
    checks, _ = verify.run_suite("g2")
    by_name = {c["name"]: c for c in checks}
    assert by_name["cubic_identity"]["residual"] == pytest.approx(direct, abs=1e-14)
    assert by_name["cubic_identity"]["residual"] <= 1e-12
