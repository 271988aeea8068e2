import json

import pytest

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


def test_spin_suite_reports_exact_pure_weight():
    from liechan import bloch as bl

    for two_s in (1, 2, 3, 4):
        checks, info = verify.run_suite("spin", two_s=two_s)
        by_name = {c["name"]: c for c in checks}
        assert by_name["vw_pure_weight_witness"]["pass"]
        assert by_name["vw_pure_weight_witness"]["tolerance"] == 1e-12
        assert info["vw_pure_weight_min"] == bl.spin_vw_pure_weight(two_s)
        assert "vw_purity_search_min" not in info
