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
