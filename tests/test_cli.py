import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import liechan
from liechan import bloch as bl
from liechan import matcore as mc
from liechan.cli import main
from tests.conftest import maximally_mixed, spin, su


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main(list(argv) + ["--out", str(out)])
    return code, out.read_text() if out.exists() else ""


def test_gen_su3(tmp_path):
    code, text = run(tmp_path, "gen", "--algebra", "su", "--n", "3")
    assert code == 0
    report = json.loads(text)
    gs = report["generator_set"]
    assert gs["k"] == 8
    assert gs["Z"] == pytest.approx(16.0 / 3.0)
    assert report["checks"]["casimir_deviation"] < 1e-9


def test_gen_g2(tmp_path):
    code, text = run(tmp_path, "gen", "--algebra", "g2")
    assert code == 0
    gs = json.loads(text)["generator_set"]
    assert gs["k"] == 14 and gs["d"] == 7
    assert gs["N"] == pytest.approx(1.0 / 14.0)


def test_gen_missing_n_exits_2(tmp_path):
    assert run(tmp_path, "gen", "--algebra", "su")[0] == 2


def test_apply_su2_critical(tmp_path):
    rho = mc.random_density(2, np.random.default_rng(0))
    rho_file = tmp_path / "rho.json"
    rho_file.write_text(json.dumps(rho.to_json()))
    code, text = run(
        tmp_path, "apply", "--algebra", "su", "--n", "2", "--p", "0.75",
        "--rho", str(rho_file),
    )
    assert code == 0
    report = json.loads(text)
    out = mc.matrix_from_json(report["output"])
    assert mc.max_abs(out - np.eye(2) / 2.0) < 1e-9
    assert report["depolarizing_lambda"] == pytest.approx(0.0, abs=1e-9)


def test_apply_identity_channel_round_trip(tmp_path):
    rho = mc.random_density(3, np.random.default_rng(1))
    rho_file = tmp_path / "rho.json"
    rho_file.write_text(json.dumps(rho.to_json()))
    code, text = run(
        tmp_path, "apply", "--algebra", "su", "--n", "3", "--p", "0.0",
        "--rho", str(rho_file),
    )
    assert code == 0
    out = mc.matrix_from_json(json.loads(text)["output"])
    assert mc.max_abs(out - rho.matrix) < 1e-12


def test_apply_spin1_vw_report(tmp_path):
    rng = np.random.default_rng(2)
    v = rng.normal(size=3) * 0.1
    w = np.eye(3) / 6.0
    rho_file = tmp_path / "rho.json"
    rho_file.write_text(json.dumps({"v": list(v), "w": [list(r) for r in w]}))
    p = 0.4
    code, text = run(
        tmp_path, "apply", "--algebra", "spin", "--two-s", "2", "--p", str(p),
        "--rho", str(rho_file),
    )
    assert code == 0
    report = json.loads(text)
    got_v = np.array(report["vw_out"]["v"])
    np.testing.assert_allclose(got_v, (1.0 - p / 2.0) * v, atol=1e-9)


@pytest.mark.parametrize("text", [
    '{"v": [NaN, 0, 0], "w": [[0.25, 0, 0], [0, 0.125, 0], [0, 0, 0.125]]}',
    '{"v": [0, 0, 0], "w": [[0.2, Infinity, 0], [Infinity, 0.2, 0], [0, 0, 0.1]]}',
    '{"v": [0, 0, 0], "w": [[0.2, NaN, 0], [NaN, 0.2, 0], [0, 0, 0.1]]}',
])
def test_apply_non_finite_vw_exits_2(tmp_path, capsys, text):
    rho_file = tmp_path / "rho.json"
    rho_file.write_text(text)
    code, _ = run(tmp_path, "apply", "--algebra", "spin", "--two-s", "2", "--p", "0.1",
                  "--rho", str(rho_file))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err


FINITE_V = "error: Bloch coefficients must be finite (no NaN/Inf)"
UNREPRESENTABLE_RHO = [
    ('{"v": [Infinity, 0, 0]}', FINITE_V),
    ('{"v": [0, NaN, 0]}', FINITE_V),
    # finite entries whose trace and Hermitian deviation overflow
    ('{"dim": 2, "entries": [[1e308,0],[0,0],[0,0],[1e308,0]]}',
     "error: trace deviates from 1 by inf > 1e-10"),
    ('{"dim": 2, "entries": [[0.5,0],[1e308,0],[-1e308,0],[0.5,0]]}',
     "error: not Hermitian: deviation inf > 1e-10"),
]


@pytest.mark.parametrize("text, message", UNREPRESENTABLE_RHO, ids=[t for t, _ in UNREPRESENTABLE_RHO])
def test_apply_non_finite_bloch_vector_exits_2_without_warnings(tmp_path, capsys, text, message):
    import warnings

    rho_file = tmp_path / "rho.json"
    rho_file.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = run(tmp_path, "apply", "--algebra", "su", "--n", "2", "--p", "0.1",
                      "--rho", str(rho_file))
    err = capsys.readouterr().err
    assert code == 2 and caught == []
    assert err.splitlines() == [message]


def test_apply_spin_vw_builds_the_spin_set_once(tmp_path, spin_rep_calls):
    from liechan import cli

    cli._GENSETS.clear()
    rho_file = tmp_path / "rho.json"
    rho_file.write_text(json.dumps({"v": [0.1, 0.0, -0.1], "w": (np.eye(3) / 6.0).tolist()}))
    for p in ("0.2", "0.3"):
        code, text = run(
            tmp_path, "apply", "--algebra", "spin", "--two-s", "2", "--p", p,
            "--rho", str(rho_file),
        )
        assert code == 0 and json.loads(text)["vw_out"] is not None
    assert spin_rep_calls == [2]


def test_verify_su_builds_gell_mann_once(tmp_path, monkeypatch):
    from liechan import cli
    from liechan import repgen as rg

    cli._GENSETS.clear()
    calls = {}
    _counted(monkeypatch, rg, "gell_mann", calls)
    reports = []
    for seed in ("1", "2"):
        code, text = run(tmp_path, "verify", "--algebra", "su", "--n", "4", "--seed", seed)
        assert code == 0
        reports.append(json.loads(text))
    assert calls == {"gell_mann": 1}
    assert reports[0]["checks"] == reports[1]["checks"]


def test_genset_memo_keys_on_the_sizing_flag_only():
    from liechan import cli

    def cfg(algebra, n=None, two_s=None):
        argv = ["gen", "--algebra", algebra]
        argv += ["--n", str(n)] if n is not None else []
        argv += ["--two-s", str(two_s)] if two_s is not None else []
        return cli._checked(cli._build_parser().parse_args(argv))

    assert cli._genset(cfg("g2")) is cli._genset(cfg("g2", n=5, two_s=3))
    assert cli._genset(cfg("su", n=3)) is cli._genset(cfg("su", n=3, two_s=7))
    assert cli._genset(cfg("spin", n=4, two_s=2)) is cli._genset(cfg("spin", two_s=2))
    assert cli._genset(cfg("su", n=3)) is not cli._genset(cfg("su", n=4))


def test_repeated_request_gives_identical_bytes(tmp_path):
    rho_file = tmp_path / "rho.json"
    rho_file.write_text(json.dumps({"v": [0.1, 0.0, -0.1], "w": (np.eye(3) / 6.0).tolist()}))
    for argv in (["apply", "--algebra", "spin", "--two-s", "2", "--p", "0.2", "--rho", str(rho_file)],
                 ["gen", "--algebra", "su", "--n", "3"]):
        first = run(tmp_path, *argv)
        assert first[0] == 0
        assert run(tmp_path, *argv) == first


def test_usage_error_leaves_no_parser_state(tmp_path, capsys):
    argv = ["apply", "--algebra", "su", "--n", "2", "--p", "0.3", "--rho"]
    rho_file = tmp_path / "rho.json"
    rho_file.write_text(json.dumps({"v": [0.0, 0.0, 0.5]}))
    before = run(tmp_path, *argv, str(rho_file))
    with pytest.raises(SystemExit) as exc:
        main(["apply", "--algebra", "su", "--n", "2", "--p", "often", "--rho", str(rho_file)])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(tmp_path, *argv, str(rho_file)) == before
    assert before[0] == 0 and capsys.readouterr().err == ""


def test_failed_build_is_not_cached(tmp_path, capsys):
    errs = []
    for _ in range(2):
        code, _ = run(tmp_path, "gen", "--algebra", "su")
        assert code == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] == "error: --n is required for the su algebra\n"


def test_apply_vw_input_needs_spin_algebra(tmp_path):
    rho_file = tmp_path / "rho.json"
    rho_file.write_text(json.dumps({"v": [0.0, 0.0, 0.0], "w": (np.eye(3) / 6.0).tolist()}))
    code, _ = run(tmp_path, "apply", "--algebra", "su", "--n", "3", "--rho", str(rho_file))
    assert code == 2


def test_apply_bloch_vector_input(tmp_path):
    g = su(2)
    rho_file = tmp_path / "rho.json"
    rho_file.write_text(json.dumps({"v": [0.0, 0.0, 0.5]}))
    code, text = run(
        tmp_path, "apply", "--algebra", "su", "--n", "2", "--p", "0.3",
        "--rho", str(rho_file),
    )
    assert code == 0
    out = mc.matrix_from_json(json.loads(text)["output"])
    expect = bl.bloch_rho(g, [0.0, 0.0, (1.0 - 0.4) * 0.5])
    assert mc.max_abs(out - expect) < 1e-12


def test_apply_malformed_rho_exits_2(tmp_path):
    rho_file = tmp_path / "rho.json"
    rho_file.write_text(json.dumps({"dim": 2, "entries": [[1.0, 0.0]]}))
    code, _ = run(
        tmp_path, "apply", "--algebra", "su", "--n", "2", "--p", "0.1",
        "--rho", str(rho_file),
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--algebra", "su", "--n", "3"),
        ("verify", "--algebra", "su", "--n", "4"),
        ("verify", "--algebra", "spin", "--two-s", "2"),
        ("verify", "--algebra", "g2"),
        ("verify", "--algebra", "clifford"),
    ],
)
def test_verify_suites_pass(tmp_path, argv):
    code, text = run(tmp_path, *argv)
    assert code == 0
    report = json.loads(text)
    assert report["passed"]
    assert all(c["pass"] for c in report["checks"])


def test_critical_spin1(tmp_path):
    code, text = run(tmp_path, "critical", "--algebra", "spin", "--two-s", "2")
    assert code == 0
    report = json.loads(text)
    by_rank = {e["rank"]: e for e in report["entries"]}
    assert by_rank[1]["p"] == pytest.approx(2.0)
    assert not by_rank[1]["in_range"]
    assert by_rank[2]["p"] == pytest.approx(2.0 / 3.0)
    assert by_rank[2]["in_range"]


def test_critical_su3(tmp_path):
    code, text = run(tmp_path, "critical", "--algebra", "su", "--n", "3")
    assert code == 0
    report = json.loads(text)
    by_rank = {e["rank"]: e for e in report["entries"]}
    assert by_rank[1]["p"] == pytest.approx(8.0 / 9.0)


def test_bloch_scan_deterministic(tmp_path):
    argv = ["bloch-scan", "--algebra", "su", "--n", "3", "--samples", "40", "--seed", "11"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_bloch_scan_oracles_agree(tmp_path):
    code, text = run(
        tmp_path, "bloch-scan", "--algebra", "su", "--n", "3",
        "--samples", "100", "--seed", "3", "--format", "csv",
    )
    assert code == 0
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    assert header[-1] == "member_closed_form"
    i_eig = header.index("member_eig")
    i_min = header.index("min_eigenvalue")
    for line in lines[1:]:
        cells = line.split(",")
        if abs(float(cells[i_min])) <= 1e-7:
            continue
        assert cells[i_eig] == cells[i_eig + 1] == cells[-1]


def test_bloch_scan_json_format(tmp_path):
    code, text = run(
        tmp_path, "bloch-scan", "--algebra", "spin", "--two-s", "2",
        "--samples", "10", "--format", "json",
    )
    assert code == 0
    rows = json.loads(text)
    assert len(rows) == 10
    assert {"v", "min_eigenvalue", "member_eig", "member_charpoly"} <= set(rows[0])


SCAN_ALGEBRAS = {  # name: (algebra, n, two_s)
    "su3": ("su", 3, None), "spin3_2": ("spin", None, 3), "g2": ("g2", None, None),
    "su8": ("su", 8, None),
}


def reference_scan(algebra, n, two_s, samples, seed, fmt):
    """The bloch-scan report built one vector at a time from the library's
    per-vector calls, with the row assembly of the per-vector scan."""
    from liechan import repgen as rg

    g = rg.build_algebra(algebra, n=n, two_s=two_s)
    su3 = algebra == "su" and n == 3
    tensors = rg.structure_tensors(g) if su3 else None
    flags = ["member_eig", "member_charpoly"] + (["member_closed_form"] if su3 else [])
    rows = []
    for v in bl.sample_bloch_vectors(g, samples, seed=seed):
        rho = bl.bloch_rho(g, v)
        row = {
            "min_eigenvalue": float(np.linalg.eigvalsh(rho).min()),
            "member_eig": bl.membership_eig(g, v),
            "member_charpoly": bl.membership_charpoly(g, v),
        }
        if su3:
            row["member_closed_form"] = bl.su3_membership_closed(v, tensors)
        rows.append((v, row))
    if fmt == "json":
        return json.dumps([{"v": [float(x) for x in v], **row} for v, row in rows],
                          sort_keys=True, indent=2)
    lines = [",".join([f"v_{i}" for i in range(g.k)] + ["min_eigenvalue"] + flags)]
    for v, row in rows:
        cells = [format(float(x), ".17g") for x in v] + [format(row["min_eigenvalue"], ".17g")]
        cells += ["true" if row[f] else "false" for f in flags]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("seed", [5, 23])
@pytest.mark.parametrize("name", sorted(SCAN_ALGEBRAS))
def test_bloch_scan_matches_the_per_vector_report(tmp_path, name, seed, fmt):
    algebra, n, two_s = SCAN_ALGEBRAS[name]
    argv = ["--algebra", algebra] + (["--n", str(n)] if n else []) + (["--two-s", str(two_s)] if two_s else [])
    code, text = run(tmp_path, "bloch-scan", *argv, "--samples", "60", "--seed", str(seed),
                     "--format", fmt)
    assert code == 0
    assert text == reference_scan(algebra, n, two_s, 60, seed, fmt)


def _counted(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("block, blocks", [(7, 8), (1, 50), (49, 2), (50, 1)])
def test_bloch_scan_blocks_from_the_budget_give_the_one_block_report(
        tmp_path, monkeypatch, fmt, block, blocks):
    from liechan import cli

    argv = ["bloch-scan", "--algebra", "su", "--n", "3", "--samples", "50", "--seed", "9",
            "--format", fmt]
    code, whole = run(tmp_path, *argv)
    assert code == 0
    # su(3) has d = 3: `block` samples fill SCAN_LIVE_STACKS stacks of 16 * 9 bytes each
    monkeypatch.setattr(cli, "ARRAY_BUDGET", cli.SCAN_LIVE_STACKS * 16 * 9 * block)
    assert cli._scan_block(3) == block
    calls = {}
    _counted(monkeypatch, np.linalg, "eigvalsh", calls)
    for name in ("bloch_rho", "char_poly_coeffs", "su3_membership_closed"):
        _counted(monkeypatch, bl, name, calls)
    code, text = run(tmp_path, *argv)
    assert code == 0
    assert text == whole
    assert calls == {"eigvalsh": blocks, "bloch_rho": blocks, "char_poly_coeffs": blocks,
                     "su3_membership_closed": blocks}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_bloch_scan_prefix_is_the_shorter_scan(tmp_path, fmt):
    argv = ["bloch-scan", "--algebra", "su", "--n", "3", "--seed", "7", "--format", fmt]
    code, short = run(tmp_path, *argv, "--samples", "100")
    assert code == 0
    code, long = run(tmp_path, *argv, "--samples", "300")
    assert code == 0
    if fmt == "csv":
        assert short.splitlines(keepends=True) == long.splitlines(keepends=True)[:101]
    else:
        assert json.loads(short) == json.loads(long)[:100]


def test_su3_scans_share_one_structure_tensor_build(tmp_path, monkeypatch):
    from liechan import repgen as rg

    bl._su3_tensors.cache_clear()
    calls = {}
    _counted(monkeypatch, rg, "structure_tensors", calls)
    monkeypatch.setattr(bl, "structure_tensors", rg.structure_tensors)
    for seed in ("1", "2"):
        code, _ = run(tmp_path, "bloch-scan", "--algebra", "su", "--n", "3", "--samples", "20",
                      "--seed", seed)
        assert code == 0
    assert calls.get("structure_tensors", 0) <= 1


def test_seed_env_fallback(tmp_path, monkeypatch):
    argv = ["bloch-scan", "--algebra", "su", "--n", "2", "--samples", "5"]
    monkeypatch.setenv("LIECHAN_SEED", "99")
    out1 = tmp_path / "env.csv"
    assert main(argv + ["--out", str(out1)]) == 0
    monkeypatch.delenv("LIECHAN_SEED")
    out2 = tmp_path / "flag.csv"
    assert main(argv + ["--seed", "99", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_invalid_samples_exits_2(tmp_path):
    code, _ = run(tmp_path, "bloch-scan", "--algebra", "su", "--n", "2", "--samples", "0")
    assert code == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["critical", "--algebra", "su", "--max-rank", "3", "--n"], "--n"),
        (["verify", "--algebra", "spin", "--two-s"], "--two-s"),
        (["bloch-scan", "--algebra", "su", "--n", "3", "--samples"], "--samples"),
    ],
)
def test_size_flag_over_bound_exits_2_before_allocating(tmp_path, monkeypatch, capsys, argv, flag):
    from liechan import cli
    from liechan import repgen as rg

    def unreachable(*args, **kwargs):
        raise AssertionError("reached a factory past the size bound")

    for module, name in [(rg, "gell_mann"), (rg, "spin_rep"), (rg, "g2_rep"),
                         (rg, "clifford_weyl"), (rg, "structure_tensors"),
                         (bl, "sample_bloch_vectors")]:
        monkeypatch.setattr(module, name, unreachable)
    bound = {"--n": cli.MAX_N, "--two-s": cli.MAX_TWO_S, "--samples": cli.MAX_SAMPLES}[flag]
    code, _ = run(tmp_path, *argv, str(bound + 1))
    assert code == 2
    assert capsys.readouterr().err == f"error: {flag} must be <= {bound} (the 256 MiB array budget)\n"
    cli._checked(cli._build_parser().parse_args([*argv, str(bound)]))


def test_size_bounds_fit_the_budget_and_every_size_in_use():
    from liechan import cli

    # su(8), spin-7/2 and 1000-sample scans are the largest the tests and
    # the benchmark workloads run
    assert cli.MAX_N >= 8 and cli.MAX_TWO_S >= 7 and cli.MAX_SAMPLES >= 1000

    # each bound is the largest size whose array fits the budget
    def monomial_bytes(n):
        return 16 * math.comb(n * n + 1, 3) * n * n

    assert monomial_bytes(cli.MAX_N) <= cli.ARRAY_BUDGET < monomial_bytes(cli.MAX_N + 1)
    assert 16 * (cli.MAX_TWO_S + 1) ** 4 <= cli.ARRAY_BUDGET < 16 * (cli.MAX_TWO_S + 2) ** 4
    # a scan block is the most samples whose oracle stacks fit the budget
    for d in (2, 8, cli.MAX_N, cli.MAX_TWO_S + 1):
        per_sample = cli.SCAN_LIVE_STACKS * 16 * d * d
        block = cli._scan_block(d)
        assert per_sample * block <= cli.ARRAY_BUDGET < per_sample * (block + 1)


@pytest.mark.parametrize("max_rank", ["0", "4"])
def test_critical_rank_out_of_range_exits_2(tmp_path, monkeypatch, max_rank):
    from liechan import channel as ch

    fitted = []
    real = ch.find_identity

    def counting_find_identity(g, r, action=None):
        fitted.append(r)
        return real(g, r, action)

    monkeypatch.setattr(ch, "find_identity", counting_find_identity)
    code, _ = run(tmp_path, "critical", "--algebra", "su", "--n", "5", "--max-rank", max_rank)
    assert code == 2
    assert fitted == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--algebra", "su"], "--n is required for the su algebra"),
        (["--algebra", "spin"], "--two-s is required for the spin algebra"),
    ],
)
def test_verify_missing_size_exits_2(tmp_path, capsys, argv, message):
    from liechan import repgen as rg

    with pytest.raises(ValueError) as built:
        rg.build_algebra(argv[1])
    assert str(built.value) == message
    code, _ = run(tmp_path, "verify", *argv)
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_generator_dump_reloads(tmp_path):
    from liechan import repgen as rg

    code, text = run(tmp_path, "gen", "--algebra", "spin", "--two-s", "3")
    assert code == 0
    dump = json.loads(text)["generator_set"]
    gs = rg.GeneratorSet.from_generators([mc.matrix_from_json(m) for m in dump["generators"]])
    assert gs.d == dump["d"] == 4
    assert gs.N == pytest.approx(dump["N"]) and gs.Z == pytest.approx(dump["Z"])
    for a, b in zip(gs.generators, spin(3).generators):
        assert mc.max_abs(a - b) < 1e-15


@pytest.mark.parametrize(
    "argv",
    [
        ["critical", "--algebra", "su", "--n", "3", "--samples", "5"],
        ["gen", "--algebra", "su", "--n", "3", "--p", "0.5"],
        ["verify", "--algebra", "su", "--n", "3", "--format", "csv"],
        ["verify", "--algebra", "su", "--n", "3", "--samples", "5"],
    ],
)
def test_unread_flag_exits_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "text",
    [
        '{"dim": null, "entries": []}',
        "[1, 2]",
        '{"dim": 2, "entries": ["ab", "cd", "ef", "gh"]}',
    ],
)
def test_malformed_rho_exits_2_without_traceback(tmp_path, text):
    rho_file = tmp_path / "rho.json"
    rho_file.write_text(text)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(liechan.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "liechan.cli", "apply", "--algebra", "su", "--n", "2",
         "--rho", str(rho_file)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "text",
    [
        '{"v": {"a": 1}}',
        '{"v": [0, 0, 0], "w": {"data": [1, 0, 0, 0, 1, 0, 0, 0, 1], "shape": "ab"}}',
    ],
)
def test_malformed_vw_rho_exits_2_without_traceback(tmp_path, text):
    rho_file = tmp_path / "rho.json"
    rho_file.write_text(text)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(liechan.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "liechan.cli", "apply", "--algebra", "spin", "--two-s", "2",
         "--p", "0.1", "--rho", str(rho_file)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


_SIXTH = 1.0 / 6.0


@pytest.mark.parametrize("algebra, obj, message", [
    (["spin", "--two-s", "2"], {"v": [False, False, False]}, "v must be"),
    (["spin", "--two-s", "2"], {"v": [0.0, 0.0, True]}, "v must be"),
    (["spin", "--two-s", "2"], {"v": [0, 0, 0], "w": [[_SIXTH, False, 0], [0, _SIXTH, 0], [0, 0, _SIXTH]]},
     "w must be"),
    (["spin", "--two-s", "2"],
     {"v": [0, 0, 0], "w": {"shape": [3, 3], "data": [_SIXTH, 0, 0, 0, _SIXTH, 0, 0, False, _SIXTH]}},
     "w 'data' must be"),
    (["su", "--n", "2"], {"dim": 2, "entries": [[True, 0], [0, 0], [0, 0], [False, 0]]},
     "each matrix entry must be"),
    (["su", "--n", "2"], {"dim": 2, "entries": [[0.5, False], [0, 0], [0, 0], [0.5, 0]]},
     "each matrix entry must be"),
], ids=["v_false", "v_true", "w", "w_data", "entries_re", "entries_im"])
def test_json_booleans_in_rho_numbers_exit_2(tmp_path, capsys, algebra, obj, message):
    # each input reads as a valid state if true/false are taken as 1/0
    rho_file = tmp_path / "rho.json"
    rho_file.write_text(json.dumps(obj))
    code, _ = run(tmp_path, "apply", "--algebra", *algebra, "--p", "0.3", "--rho", str(rho_file))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("obj, name", [
    ({"v": ["0.1", "0", "0"]}, "v"),
    ({"v": [0.1, None, 0]}, "v"),
    ({"v": [0, 0, 0], "w": [[_SIXTH, "0", 0], [0, _SIXTH, 0], [0, 0, _SIXTH]]}, "w"),
    ({"v": [0, 0, 0], "w": {"shape": [3, 3], "data": [_SIXTH, 0, 0, 0, _SIXTH, 0, 0, None, _SIXTH]}},
     "w 'data'"),
    ({"v": [0, 0, 0], "w": {"shape": [3, 3]}}, "w 'data'"),
    ({"v": [0, 0, 0], "w": None}, "w"),
], ids=["v_string", "v_null", "w_string", "w_data_null", "w_data_missing", "w_null"])
def test_json_strings_and_null_in_rho_numbers_exit_2(tmp_path, capsys, obj, name):
    # numpy reads numeric strings as numbers and null as NaN; a w that is
    # present is read as one, even when it is null
    rho_file = tmp_path / "rho.json"
    rho_file.write_text(json.dumps(obj))
    code, _ = run(tmp_path, "apply", "--algebra", "spin", "--two-s", "2", "--p", "0.3",
                  "--rho", str(rho_file))
    assert code == 2
    assert capsys.readouterr().err == f"error: {name} must be a (nested) list of real numbers\n"


@pytest.mark.parametrize("p", ["0", "0.3", "1"])
def test_apply_reads_w_as_shape_data_like_a_nested_list(tmp_path, p):
    # the {shape, data} form is what apply writes in vw_out, so a report's
    # output can be fed back in
    w = [[_SIXTH, 0.01, 0], [0.01, _SIXTH, 0], [0, 0, _SIXTH]]
    texts = []
    for form in (w, {"shape": [3, 3], "data": [x for row in w for x in row]}):
        rho_file = tmp_path / "rho.json"
        rho_file.write_text(json.dumps({"v": [0.1, 0, -0.1], "w": form}))
        code, text = run(tmp_path, "apply", "--algebra", "spin", "--two-s", "2", "--p", p,
                         "--rho", str(rho_file))
        assert code == 0
        texts.append(text)
    assert texts[0] == texts[1]
    report = json.loads(texts[1])
    rho_file.write_text(json.dumps(report["vw_out"]))
    assert run(tmp_path, "apply", "--algebra", "spin", "--two-s", "2", "--p", p,
               "--rho", str(rho_file))[0] == 0


def test_every_subcommand_has_a_handler():
    from liechan import cli

    (sub,) = [a for a in cli._build_parser()._actions if a.dest == "command"]
    assert sorted(sub.choices) == ["apply", "bloch-scan", "critical", "gen", "verify"]
    for name, parser in sub.choices.items():
        assert parser.get_default("run") is getattr(cli, "cmd_" + name.replace("-", "_")), name


def test_import_cli_loads_no_numpy_polynomial():
    # the W iteration and the g2 radius chain run on plain floats and Fractions
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(liechan.__file__)))
    script = "import sys, liechan.cli; print('numpy.polynomial' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout == "False\n"


def test_deeply_nested_rho_exits_2_without_traceback(tmp_path, capsys):
    # deeper than the JSON decoder's recursion limit
    rho_file = tmp_path / "rho.json"
    rho_file.write_text("[" * 200_000 + "]" * 200_000)
    code, _ = run(tmp_path, "apply", "--algebra", "su", "--n", "2", "--rho", str(rho_file))
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: --rho JSON is nested too deeply\n"
    assert "Traceback" not in err


# Arbitrary JSON for `apply --rho`, with the keys the input forms use made
# likely, so that the raw-matrix, {v} and {v, w} paths all see malformed data.
_JSON_KEYS = st.sampled_from(["v", "w", "dim", "entries", "data", "shape"]) | st.text(max_size=3)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=10) | st.dictionaries(_JSON_KEYS, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(obj=_JSON, algebra=st.sampled_from([["su", "--n", "2"], ["spin", "--two-s", "2"]]))
@example(obj={"v": [10**400, 0, 0]}, algebra=["spin", "--two-s", "2"])
@example(obj={"v": [0, 0, 0], "w": [[10**400] * 3] * 3}, algebra=["spin", "--two-s", "2"])
@example(obj={"dim": 2, "entries": [[10**400, 0]] * 4}, algebra=["su", "--n", "2"])
def test_apply_any_json_rho_returns_exit_code(obj, algebra):
    with tempfile.TemporaryDirectory() as tmp:
        rho_file = os.path.join(tmp, "rho.json")
        with open(rho_file, "w") as fh:
            json.dump(obj, fh)
        code = main(["apply", "--algebra", *algebra, "--p", "0.3", "--rho", rho_file,
                     "--out", os.path.join(tmp, "out.json")])
    assert code in (0, 1, 2)


# Whole argv lists for every subcommand, with sizes around the small end of
# their ranges (negative and zero included) and p and seed values that the
# CLI must reject.  Each optional flag is left out a quarter of the time.
_SUBCOMMAND_FLAGS = {
    "gen": {},
    "apply": {"--p": st.floats() | st.sampled_from([0.0, 0.5, 1.0])},
    "verify": {},
    "bloch-scan": {"--samples": st.integers(-2, 20), "--format": st.sampled_from(["csv", "json"])},
    "critical": {"--max-rank": st.integers(-1, 4)},
}
_COMMON_FLAGS = {"--n": st.integers(-1, 4), "--two-s": st.integers(-1, 7), "--seed": st.integers(-3, 2**31)}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_SUBCOMMAND_FLAGS)))
    argv = [command, "--algebra", draw(st.sampled_from(["su", "spin", "g2", "clifford"]))]
    argv += ["--rho", "RHO"] if command == "apply" else []
    for flag, values in {**_COMMON_FLAGS, **_SUBCOMMAND_FLAGS[command]}.items():
        if draw(st.integers(0, 3)):
            argv += [flag, str(draw(values))]
    return argv


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(argv=_argv())
def test_any_argv_exits_0_1_or_2_without_traceback(argv):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        rho_file = os.path.join(tmp, "rho.json")
        with open(rho_file, "w") as fh:
            json.dump(maximally_mixed(2).to_json(), fh)
        argv = [rho_file if a == "RHO" else a for a in argv] + ["--out", os.path.join(tmp, "out")]
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("p, shown", [("-1e-3", "-0.001"), ("-1E-3", "-0.001"), ("-1e3", "-1000.0"),
                                      ("-inf", "-inf"), ("-0.001", "-0.001")])
def test_negative_p_in_any_notation_gets_the_range_message(tmp_path, capsys, p, shown):
    rho_file = tmp_path / "rho.json"
    rho_file.write_text(json.dumps(maximally_mixed(2).to_json()))
    code, _ = run(tmp_path, "apply", "--algebra", "su", "--n", "2", "--p", p, "--rho", str(rho_file))
    assert code == 2
    assert capsys.readouterr().err == (f"error: p = {shown} lies outside [0, 1]; no normalization "
                                       "constant makes the map trace preserving for such p\n")


SEED_MESSAGE = "error: --seed (or LIECHAN_SEED) must be >= 0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--algebra", "su", "--n", "2"],
        ["apply", "--algebra", "su", "--n", "2", "--rho", "RHO"],
        ["verify", "--algebra", "su", "--n", "2"],
        ["bloch-scan", "--algebra", "su", "--n", "2", "--samples", "5"],
        ["critical", "--algebra", "su", "--n", "2"],
    ],
)
def test_negative_seed_exits_2(tmp_path, capsys, monkeypatch, argv):
    rho_file = tmp_path / "rho.json"
    rho_file.write_text(json.dumps(maximally_mixed(2).to_json()))
    argv = [str(rho_file) if a == "RHO" else a for a in argv]
    code, _ = run(tmp_path, *argv, "--seed", "-3")
    assert code == 2
    assert capsys.readouterr().err == SEED_MESSAGE
    monkeypatch.setenv("LIECHAN_SEED", "-3")
    code, _ = run(tmp_path, *argv)
    assert code == 2
    assert capsys.readouterr().err == SEED_MESSAGE


@pytest.mark.parametrize("value", ["abc", "", "1.5", "0x10", "7 seeds"])
def test_non_integer_seed_env_exits_2_naming_the_variable(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("LIECHAN_SEED", value)
    code, _ = run(tmp_path, "verify", "--algebra", "g2")
    assert code == 2
    assert capsys.readouterr().err == f"error: LIECHAN_SEED must be a non-negative integer, got {value!r}\n"
    # --seed wins, so the variable is not read
    assert run(tmp_path, "verify", "--algebra", "g2", "--seed", "3")[0] == 0


def test_gen_reports_stored_residuals(tmp_path):
    from liechan import repgen as rg

    code, text = run(tmp_path, "gen", "--algebra", "g2")
    assert code == 0
    assert json.loads(text)["checks"] == rg.g2_rep().residuals
