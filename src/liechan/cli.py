"""Command-line front end.

Subcommands:

* ``gen``         build a generator set, dump it as JSON with check summary
* ``apply``       apply a channel to a density matrix read from a file
* ``verify``      run the identity suite for an algebra (exit 0 iff green)
* ``bloch-scan``  sample Bloch vectors, write membership results (CSV/JSON)
* ``critical``    report critical error probabilities per rank

Reports are deterministic for a fixed (command, seed) pair; the seed comes
from --seed, the LIECHAN_SEED environment variable, or defaults to 0.
Numbers are printed in full precision so reports round-trip exactly.
Exit codes: 0 success, 1 verification failure, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import bloch as bl
from . import channel as ch
from . import matcore as mc
from . import repgen as rg


@dataclass(frozen=True)
class RunConfig:
    command: str
    algebra: str | None
    n: int | None
    two_s: int | None
    p: float
    seed: int
    samples: int
    output_path: str | None
    fmt: str

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("--samples must be >= 1")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _dump_json(obj, path: str | None) -> None:
    _write(json.dumps(obj, sort_keys=True, indent=2), path)


def _genset(cfg: RunConfig) -> rg.GeneratorSet:
    return rg.build_algebra(cfg.algebra, n=cfg.n, two_s=cfg.two_s)


def _check(name: str, residual: float, tol: float) -> dict:
    return {
        "name": name,
        "residual": float(residual),
        "tolerance": tol,
        "pass": bool(residual <= tol),
    }


# ---------------------------------------------------------------------------
# gen

def cmd_gen(cfg: RunConfig) -> int:
    g = _genset(cfg)
    eye = np.eye(g.d)
    herm = max(mc.max_abs(x - x.conj().T) for x in g.generators)
    traceless = max(abs(np.trace(x)) for x in g.generators)
    casimir = mc.max_abs(sum(x @ x for x in g.generators) - g.Z * eye)
    stack = np.stack(g.generators)
    gram = np.einsum("aij,bji->ab", stack, stack)
    trace_form = mc.max_abs(gram - g.N * g.d * np.eye(g.k))
    report = {
        "generator_set": g.to_json(),
        "checks": {
            "hermiticity": herm,
            "traceless": traceless,
            "casimir_deviation": casimir,
            "trace_form_deviation": trace_form,
        },
    }
    _dump_json(report, cfg.output_path)
    return 0


# ---------------------------------------------------------------------------
# apply

def _load_rho(path: str, cfg: RunConfig, g: rg.GeneratorSet) -> mc.DensityMatrix:
    with open(path) as fh:
        obj = json.load(fh)
    if "v" in obj:
        v = np.asarray(obj["v"], dtype=float)
        if "w" in obj and obj["w"] is not None:
            w = np.asarray(obj["w"]["data"], dtype=float).reshape(obj["w"]["shape"]) \
                if isinstance(obj["w"], dict) else np.asarray(obj["w"], dtype=float)
            if cfg.algebra != "spin":
                raise ValueError("(v, w) input requires --algebra spin")
            return mc.DensityMatrix(bl.rho_vw(cfg.two_s, v, w))
        return mc.DensityMatrix(bl.bloch_rho(g, v))
    return mc.DensityMatrix(mc.matrix_from_json(obj))


def cmd_apply(cfg: RunConfig, rho_path: str) -> int:
    g = _genset(cfg)
    channel = ch.build_channel(g, cfg.p)
    rho = _load_rho(rho_path, cfg, g)
    out = ch.apply(channel, rho)
    lam = ch.detect_depolarizing(channel, n_samples=16, seed=cfg.seed)
    report = {
        "p": cfg.p,
        "source": g.algebra,
        "input": rho.to_json(),
        "output": out.to_json(),
        "trace": float(np.trace(out.matrix).real),
        "min_eigenvalue": mc.min_eigenvalue(out.matrix),
        "depolarizing_lambda": lam,
    }
    if cfg.algebra == "spin" and cfg.two_s >= 2:
        try:
            v2, w2 = bl.extract_vw(out.matrix, cfg.two_s)
            report["vw_out"] = {
                "v": [float(x) for x in v2],
                "w": {"shape": [3, 3], "data": [float(x) for x in w2.ravel()]},
            }
        except bl.SpanDeficientError:
            report["vw_out"] = None
    _dump_json(report, cfg.output_path)
    return 0


# ---------------------------------------------------------------------------
# verify

def _verify_su(cfg: RunConfig) -> tuple[list, dict]:
    g = _genset(cfg)
    n = g.d
    t = rg.structure_tensors(n)
    k = g.k
    checks = []
    ff = np.einsum("ijm,ljm->il", t.f, t.f)
    checks.append(_check("f_contraction", mc.max_abs(ff - n * np.eye(k)), 1e-8))
    qq = np.einsum("ijm,ljm->il", t.Q, t.Q)
    checks.append(_check("Q_contraction", mc.max_abs(qq + 4.0 / n * np.eye(k)), 1e-8))
    checks.append(_check("d_traceless", mc.max_abs(np.einsum("iik->k", t.d_sym)), 1e-9))
    stack = np.stack(g.generators)
    prod = np.einsum("iab,jbc->ijac", stack, stack)
    recon = t.beta * np.einsum("ij,ab->ijab", np.eye(k), np.eye(n)) + np.einsum(
        "ijk,kab->ijab", t.Q, stack
    )
    checks.append(_check("product_identity", mc.max_abs(prod - recon), 1e-9))
    worst = 0.0
    for i, p in enumerate((0.0, 0.25, 0.5, 0.75, 1.0)):
        channel = ch.build_channel(g, p)
        lam = ch.su_n_factor(p, n)
        for j in range(max(2, cfg.samples // 10)):
            rho = mc.random_density(n, mc.derived_rng(cfg.seed, 31 * i + j)).matrix
            out = ch.apply_matrix(channel, rho)
            worst = max(worst, mc.max_abs(out - lam * rho - (1 - lam) / n * np.eye(n)))
    checks.append(_check("depolarizing_factor", worst, 1e-9))
    pc = ch.su_n_critical(n)
    channel = ch.build_channel(g, pc)
    worst = max(
        mc.max_abs(ch.apply_matrix(channel, mc.random_density(n, mc.derived_rng(cfg.seed, 500 + j)).matrix) - np.eye(n) / n)
        for j in range(5)
    )
    checks.append(_check("critical_map_to_uniform", worst, 1e-9))
    return checks, {"Z": g.Z, "N": g.N, "critical_p": pc}


def _verify_spin(cfg: RunConfig) -> tuple[list, dict]:
    g = _genset(cfg)
    two_s = g.d - 1
    lam = g.Z
    d = g.d
    checks = []
    eps = np.zeros((3, 3, 3))
    for (a, b, c) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[a, b, c] = 1.0
        eps[b, a, c] = -1.0
    worst = max(
        mc.max_abs(
            mc.commutator(g.generators[a], g.generators[b])
            - 1j * sum(eps[a, b, c] * g.generators[c] for c in range(3))
        )
        for a in range(3)
        for b in range(3)
    )
    checks.append(_check("commutation", worst, 1e-10))
    rep1 = ch.find_identity(g, 1)
    checks.append(_check("triple_product_identity", rep1.residual_with(lam - 1.0), 1e-9))
    rep2 = ch.find_identity(g, 2)
    checks.append(_check("quadruple_product_identity", rep2.residual_with(lam - 3.0), 1e-9))
    worst = 0.0
    for i in range(5):
        rng = mc.derived_rng(cfg.seed, i)
        p = rng.uniform(0.0, 1.0)
        v, w = _random_unit_trace_vw(two_s, rng)
        v2, w2 = ch.spin_channel_vw(two_s, p, v, w)
        direct = ch.apply_matrix(ch.build_channel(g, p), bl.rho_vw(two_s, v, w))
        worst = max(worst, mc.max_abs(direct - bl.rho_vw(two_s, v2, w2)))
    checks.append(_check("vw_closed_form", worst, 1e-8))
    info = {"Z": lam, "N": g.N, "critical_p_rank2": lam / 3.0}
    if two_s == 2:
        worst = 0.0
        for i in range(3):
            rng = mc.derived_rng(cfg.seed, 50 + i)
            p = rng.uniform(0.0, 1.0)
            _, w = _random_unit_trace_vw(2, rng)
            rho = bl.rho_vw(2, np.zeros(3), w)
            channel = ch.build_channel(g, p)
            acc = rho.copy()
            for nfold in range(1, 7):
                acc = ch.apply_matrix(channel, acc)
                wn = ch.iterate_w_polynomial(p, nfold).apply_to(w)
                worst = max(worst, mc.max_abs(acc - bl.rho_vw(2, np.zeros(3), wn)))
        checks.append(_check("iteration_formula", worst, 1e-9))
    if two_s == 3:
        info["vw_purity_search_min"] = bl.spin_vw_purity_search(3, n_starts=10, seed=cfg.seed)
    return checks, info


def _random_unit_trace_vw(two_s: int, rng: np.random.Generator):
    d = two_s + 1
    lam = (two_s / 2.0) * (two_s / 2.0 + 1.0)
    base = np.eye(3) * (1.0 / (d * lam))
    dw = rng.normal(size=(3, 3)) * 0.2
    dw = (dw + dw.T) / 2.0
    dw -= np.eye(3) * np.trace(dw) / 3.0
    v = rng.normal(size=3) * 0.2
    w = base + dw
    rho = bl.rho_vw(two_s, v, w)
    lo = float(np.linalg.eigvalsh(rho).min())
    if lo < 1e-3 / d:
        shrink = 0.5 * (1.0 / d) / max(1.0 / d - lo, 1e-12)
        v = shrink * v
        w = base + shrink * dw
    return v, w


def _verify_g2(cfg: RunConfig) -> tuple[list, dict]:
    g = rg.g2_rep()
    checks = []
    casimir = mc.max_abs(sum(b @ b for b in g.generators) - np.eye(7))
    checks.append(_check("casimir_identity", casimir, 1e-9))
    stack = np.stack(g.generators)
    gram = np.einsum("aij,bji->ab", stack, stack)
    checks.append(_check("trace_orthonormality", mc.max_abs(gram - 0.5 * np.eye(14)), 1e-9))
    worst = max(
        mc.max_abs(np.einsum("iab,bc,icd->ad", stack, b, stack)) for b in g.generators
    )
    checks.append(_check("cubic_identity", worst, 1e-12))
    worst = 0.0
    for i in range(5):
        rng = mc.derived_rng(cfg.seed, i)
        p = rng.uniform(0.0, 1.0)
        v = rng.normal(size=14) * 0.2
        rho = bl.bloch_rho(g, v)
        out = ch.apply_matrix(ch.build_channel(g, p), rho)
        worst = max(worst, mc.max_abs(out - bl.bloch_rho(g, (1.0 - p) * v)))
    checks.append(_check("bloch_scaling", worst, 1e-9))
    worst_odd = worst_t2 = worst_t4 = 0.0
    for i in range(25):
        rng = mc.derived_rng(cfg.seed, 100 + i)
        v = rng.normal(size=14)
        x = float(v @ v)
        vb = np.einsum("a,aij->ij", v, stack)
        powers = [np.trace(np.linalg.matrix_power(vb, q)).real for q in range(1, 6)]
        worst_odd = max(worst_odd, abs(powers[0]), abs(powers[2]), abs(powers[4]) / max(1.0, x * x))
        worst_t2 = max(worst_t2, abs(powers[1] - x / 2.0))
        worst_t4 = max(worst_t4, abs(powers[3] - x * x / 16.0))
    checks.append(_check("odd_trace_powers", worst_odd, 1e-8))
    checks.append(_check("quadratic_trace", worst_t2, 1e-9))
    checks.append(_check("quartic_trace_ratio_one_sixteenth", worst_t4, 1e-8))
    bounds = bl.g2_bound_refine(g)
    info = {
        "Z": g.Z,
        "N": g.N,
        "radius_bounds_v_squared": [b.v_squared_bound for b in bounds],
        "depolarizing_on_full_space": ch.detect_depolarizing(
            ch.build_channel(g, 0.5), n_samples=8, seed=cfg.seed
        ),
    }
    return checks, info


def _verify_clifford(cfg: RunConfig) -> tuple[list, dict]:
    g, basis = rg.clifford_weyl()
    checks = []
    worst = 0.0
    for i in range(50):
        rng = mc.derived_rng(cfg.seed, i)
        x = rng.normal(size=4)
        y = rng.normal(size=4)
        gx = rg.clifford_gamma(x, g)
        gy = rg.clifford_gamma(y, g)
        worst = max(
            worst,
            mc.max_abs(gx @ gy + gy @ gx - rg.clifford_bilinear(x, y) * np.eye(4)),
        )
    checks.append(_check("anticommutation", worst, 1e-10))
    gram = np.array([[np.trace(a.conj().T @ b) for b in basis] for a in basis])
    rank = int(np.linalg.matrix_rank(gram, tol=1e-8))
    checks.append(_check("basis_rank_16", float(16 - rank), 0.0))
    worst = 0.0
    for i in range(5):
        rng = mc.derived_rng(cfg.seed, 100 + i)
        nvec = int(rng.integers(1, 5))
        xs = [rng.normal(size=4) for _ in range(nvec)]
        channel = ch.clifford_vector_channel(g, xs)
        for j in range(4):
            rho = mc.random_density(4, mc.derived_rng(cfg.seed, 200 + 10 * i + j)).matrix
            out = ch.apply_matrix(channel, rho)
            worst = max(worst, abs(np.trace(out).real - 1.0))
    checks.append(_check("vector_channel_trace_preserving", worst, 1e-10))
    return checks, {"Z": g.Z, "N": g.N}


def cmd_verify(cfg: RunConfig) -> int:
    runners = {
        "su": _verify_su,
        "spin": _verify_spin,
        "g2": _verify_g2,
        "clifford": _verify_clifford,
    }
    checks, info = runners[cfg.algebra](cfg)
    passed = all(c["pass"] for c in checks)
    report = {
        "algebra": cfg.algebra,
        "n": cfg.n,
        "two_s": cfg.two_s,
        "seed": cfg.seed,
        "checks": checks,
        "info": info,
        "passed": passed,
    }
    _dump_json(report, cfg.output_path)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# bloch-scan

def cmd_bloch_scan(cfg: RunConfig) -> int:
    g = _genset(cfg)
    su3 = cfg.algebra == "su" and cfg.n == 3
    tensors = rg.structure_tensors(3) if su3 else None
    vs = bl.sample_bloch_vectors(g, cfg.samples, seed=cfg.seed)
    rows = []
    for v in vs:
        rho = bl.bloch_rho(g, v)
        lo = float(np.linalg.eigvalsh(rho).min())
        row = {
            "min_eigenvalue": lo,
            "member_eig": bl.membership_eig(g, v),
            "member_charpoly": bl.membership_charpoly(g, v),
        }
        if su3:
            row["member_closed_form"] = bl.su3_membership_closed(v, tensors)
        rows.append((v, row))
    if cfg.fmt == "json":
        out = [
            {"v": [float(x) for x in v], **row}
            for v, row in rows
        ]
        _dump_json(out, cfg.output_path)
        return 0
    header = [f"v_{i}" for i in range(g.k)] + ["min_eigenvalue", "member_eig", "member_charpoly"]
    if su3:
        header.append("member_closed_form")
    lines = [",".join(header)]
    for v, row in rows:
        cells = [_fmt(x) for x in v]
        cells.append(_fmt(row["min_eigenvalue"]))
        cells.append("true" if row["member_eig"] else "false")
        cells.append("true" if row["member_charpoly"] else "false")
        if su3:
            cells.append("true" if row["member_closed_form"] else "false")
        lines.append(",".join(cells))
    _write("\n".join(lines) + "\n", cfg.output_path)
    return 0


# ---------------------------------------------------------------------------
# critical

def cmd_critical(cfg: RunConfig, max_rank: int) -> int:
    g = _genset(cfg)
    decomp = ch.critical_values(g, max_rank=max_rank, seed=cfg.seed)
    _dump_json(decomp.to_json(), cfg.output_path)
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liechan",
        description="Quantum channels from Lie algebra representations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_algebra=True):
        p.add_argument("--algebra", choices=("su", "spin", "g2", "clifford"),
                       required=needs_algebra)
        p.add_argument("--n", type=int, default=None, help="su(n) dimension")
        p.add_argument("--two-s", dest="two_s", type=int, default=None,
                       help="twice the spin (d = two_s + 1)")
        p.add_argument("--p", type=float, default=0.0, help="error probability")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--samples", type=int, default=1000)
        p.add_argument("--out", dest="output_path", default=None)
        p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")

    common(sub.add_parser("gen", help="dump a generator set"))
    p_apply = sub.add_parser("apply", help="apply a channel to a density matrix")
    common(p_apply)
    p_apply.add_argument("--rho", required=True, help="density matrix JSON file")
    common(sub.add_parser("verify", help="run the identity suite"))
    p_scan = sub.add_parser("bloch-scan", help="sample Bloch manifold membership")
    common(p_scan)
    p_scan.set_defaults(fmt="csv")
    p_crit = sub.add_parser("critical", help="critical error probabilities")
    common(p_crit)
    p_crit.add_argument("--max-rank", dest="max_rank", type=int, default=2)
    return parser


def _config(args) -> RunConfig:
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("LIECHAN_SEED", "0"))
    return RunConfig(
        command=args.command,
        algebra=args.algebra,
        n=args.n,
        two_s=args.two_s,
        p=args.p,
        seed=seed,
        samples=args.samples,
        output_path=args.output_path,
        fmt=args.fmt,
    )


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config(args)
        if args.command == "gen":
            return cmd_gen(cfg)
        if args.command == "apply":
            return cmd_apply(cfg, args.rho)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "bloch-scan":
            return cmd_bloch_scan(cfg)
        if args.command == "critical":
            return cmd_critical(cfg, args.max_rank)
        parser.error(f"unknown command {args.command}")
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
