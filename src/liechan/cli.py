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
from . import verify


# Size limits, checked before anything is built or sampled.  Each keeps the
# largest array its flag can size within ARRAY_BUDGET (256 MiB):
# * --n: `critical --max-rank 3` on su(n) holds C(k+2, 3) rank-3 monomials
#   of n x n complex128 (16 byte) entries, k = n^2 - 1: 267 MB at n = 10,
#   572 MB at n = 11.  The other su(n) arrays (the k^2 n^2 products of
#   structure_tensors, the n^2 x n^2 superoperator) are smaller.
# * --two-s: the spin superoperator and its eigenvectors are d^2 x d^2
#   complex128, d = two_s + 1: 16 d^4 bytes, 256 MiB at d = 64.
# * --samples: a scan keeps each sample's k <= MAX_N^2 - 1 coordinates as a
#   float64, a Python float and report text, at most SCAN_BYTES_PER_COORD
#   in all (tracemalloc measured 171 bytes for a JSON su(10) scan).
# * the scan's stack term: the oracles run on (n, d, d) complex128 stacks,
#   16 d^2 bytes per sample and stack, and at most SCAN_LIVE_STACKS of them
#   are alive at once (tracemalloc: 4 to 5.2 in the charpoly oracle, rho
#   included, for d = 8 to 64).  The scan feeds them blocks of
#   _scan_block(d) samples, so that the stacks stay within the budget at any
#   --samples: 682 samples a block at d = 64.
ARRAY_BUDGET = 2 ** 28
SCAN_BYTES_PER_COORD = 256
SCAN_LIVE_STACKS = 6
MAX_N = 10
MAX_TWO_S = 63
MAX_SAMPLES = ARRAY_BUDGET // (SCAN_BYTES_PER_COORD * (MAX_N ** 2 - 1))


def _scan_block(d: int) -> int:
    """Samples per oracle block: SCAN_LIVE_STACKS (n, d, d) complex128
    stacks fit ARRAY_BUDGET."""
    return max(1, ARRAY_BUDGET // (SCAN_LIVE_STACKS * 16 * d * d))


@dataclass(frozen=True)
class RunConfig:
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
        for flag, value, bound in (("--n", self.n, MAX_N), ("--two-s", self.two_s, MAX_TWO_S),
                                   ("--samples", self.samples, MAX_SAMPLES)):
            if value is not None and value > bound:
                raise ValueError(f"{flag} must be <= {bound} (the {ARRAY_BUDGET >> 20} MiB array budget)")
        if self.seed < 0:
            raise ValueError("--seed (or LIECHAN_SEED) must be >= 0")


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


# ---------------------------------------------------------------------------
# gen

def cmd_gen(cfg: RunConfig) -> int:
    g = _genset(cfg)
    _dump_json({"generator_set": g.to_json(), "checks": g.residuals}, cfg.output_path)
    return 0


# ---------------------------------------------------------------------------
# apply

def _real_array(obj, name: str) -> np.ndarray:
    try:
        return np.asarray(obj, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be a (nested) list of real numbers") from None


def _load_rho(path: str, g: rg.GeneratorSet) -> mc.DensityMatrix:
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("--rho must hold a JSON object")
    if "v" in obj:
        v = _real_array(obj["v"], "v")
        w = obj.get("w")
        if w is not None:
            if isinstance(w, dict):
                if w.get("shape") != [3, 3]:
                    raise ValueError("w 'shape' must be [3, 3]")
                w = _real_array(w.get("data"), "w 'data'").reshape(3, 3)
            return mc.DensityMatrix(bl.rho_vw(g, v, _real_array(w, "w")))
        return mc.DensityMatrix(bl.bloch_rho(g, v))
    return mc.DensityMatrix(mc.matrix_from_json(obj))


def cmd_apply(cfg: RunConfig, rho_path: str) -> int:
    g = _genset(cfg)
    channel = ch.build_channel(g, cfg.p)
    rho = _load_rho(rho_path, g)
    out = ch.apply(channel, rho)
    lam = ch.detect_depolarizing(channel)
    report = {
        "p": cfg.p,
        "source": g.algebra,
        "input": rho.to_json(),
        "output": out.to_json(),
        "trace": float(np.trace(out.matrix).real),
        "min_eigenvalue": mc.min_eigenvalue(out.matrix),
        "depolarizing_lambda": lam,
    }
    if g.algebra == rg.SU2_SPIN and g.d >= 3:
        try:
            v2, w2 = bl.extract_vw(out.matrix, g)
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

def cmd_verify(cfg: RunConfig) -> int:
    checks, info = verify.run_suite(cfg.algebra, cfg.n, cfg.two_s, cfg.seed)
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
    flags = ["member_eig", "member_charpoly"] + (["member_closed_form"] if su3 else [])
    vs = bl.sample_bloch_vectors(g, cfg.samples, seed=cfg.seed)
    columns = {name: [] for name in ["min_eigenvalue"] + flags}
    block = _scan_block(g.d)
    for start in range(0, len(vs), block):
        part = vs[start:start + block]
        rho = bl.bloch_rho(g, part)
        ev = np.linalg.eigvalsh(rho)
        columns["min_eigenvalue"] += ev.min(axis=-1).tolist()
        columns["member_eig"] += bl.psd_by_eigenvalues(ev).tolist()
        columns["member_charpoly"] += bl.psd_by_charpoly(rho).tolist()
        if su3:
            columns["member_closed_form"] += bl.su3_membership_closed(part, tensors).tolist()
    rows = zip(vs.tolist(), *columns.values())
    if cfg.fmt == "json":
        _dump_json([dict(zip(["v", *columns], row)) for row in rows], cfg.output_path)
        return 0
    # '%.17g' % x is format(x, '.17g') for every float, signed zeros and
    # non-finite values included
    row_fmt = ",".join(["%.17g"] * (g.k + 1) + ["%s"] * len(flags))
    lines = [",".join([f"v_{i}" for i in range(g.k)] + ["min_eigenvalue"] + flags)]
    lines += [row_fmt % (*v, ev, *["true" if f else "false" for f in fl]) for v, ev, *fl in rows]
    _write("\n".join(lines) + "\n", cfg.output_path)
    return 0


# ---------------------------------------------------------------------------
# critical

def cmd_critical(cfg: RunConfig, max_rank: int) -> int:
    g = _genset(cfg)
    decomp = ch.critical_values(g, max_rank=max_rank)
    _dump_json(decomp.to_json(), cfg.output_path)
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liechan",
        description="Quantum channels from Lie algebra representations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--algebra", choices=("su", "spin", "g2", "clifford"), required=True)
        p.add_argument("--n", type=int, default=None, help="su(n) dimension")
        p.add_argument("--two-s", dest="two_s", type=int, default=None,
                       help="twice the spin (d = two_s + 1)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", dest="output_path", default=None)

    common(sub.add_parser("gen", help="dump a generator set"))
    p_apply = sub.add_parser("apply", help="apply a channel to a density matrix")
    common(p_apply)
    p_apply.add_argument("--p", type=float, default=0.0, help="error probability")
    p_apply.add_argument("--rho", required=True, help="density matrix JSON file")
    common(sub.add_parser("verify", help="run the identity suite"))
    p_scan = sub.add_parser("bloch-scan", help="sample Bloch manifold membership")
    common(p_scan)
    p_scan.add_argument("--samples", type=int, default=1000)
    p_scan.add_argument("--format", dest="fmt", choices=("json", "csv"), default="csv")
    p_crit = sub.add_parser("critical", help="critical error probabilities")
    common(p_crit)
    p_crit.add_argument("--max-rank", dest="max_rank", type=int, default=2)
    return parser


def _config(args) -> RunConfig:
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("LIECHAN_SEED", "0"))
    return RunConfig(
        algebra=args.algebra,
        n=args.n,
        two_s=args.two_s,
        p=getattr(args, "p", 0.0),
        seed=seed,
        samples=getattr(args, "samples", 1000),
        output_path=args.output_path,
        fmt=getattr(args, "fmt", "json"),
    )


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config(args)
        if args.command == "apply":
            return cmd_apply(cfg, args.rho)
        if args.command == "critical":
            return cmd_critical(cfg, args.max_rank)
        return {"gen": cmd_gen, "verify": cmd_verify, "bloch-scan": cmd_bloch_scan}[args.command](cfg)
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
