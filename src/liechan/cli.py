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
import dataclasses
import functools
import json
import os
import re
import sys

import numpy as np

from . import bloch as bl
from . import channel as ch
from . import matcore as mc
from . import repgen as rg
from . import textfmt
from . import verify


# Size limits, checked before anything is built or sampled.  Each keeps the
# largest array its flag can size within ARRAY_BUDGET (256 MiB):
# * --n: `critical --max-rank 3` on su(n) fits C(k+2, 3) rank-3 monomials
#   of n x n complex128 (16 byte) entries, k = n^2 - 1: 166,650 at n = 10,
#   267 MB as one stack (572 MB at n = 11), which set MAX_N.  No such stack
#   is formed now: the fold hands the monomials out in slabs and the fit
#   reads them in row blocks (channel.find_identity); raising MAX_N is a
#   decision of its own.  The process bound of `critical` is
#   2 x ARRAY_BUDGET above the interpreter, at every --n and --two-s.  At
#   its peak these are alive, with their sizes at n = 10 (tracemalloc 112 MB
#   in all):
#   - the set's pair table X_a X_b, 16 k^2 n^2 bytes (16 MB), kept with it;
#   - one slab of the fold: its triple products, at most
#     matcore.FOLD_SLAB_BYTES or one largest factor's 3k^2 - 3k + 1 (47 MB),
#     two buffers of the slab's monomials, which also take each gemm's pairs
#     (16 MB), and the triples' row index, 8 k^3 bytes (8 MB);
#   - one row block of the fit: about five stacks of
#     channel.FIT_BLOCK_BYTES (under 1 MB), or of channel.FIT_BLOCK_ROWS
#     monomials where that is more (from d = 23 on; 5 MB at d = 64);
#   - L, 16 n^4 bytes (0.16 MB), and the fit's R factor, at most as large;
#   - the per-monomial scalars: the multisets, f_M, g_M and flags and the
#     fold's factor indices, about 165 bytes a monomial (27 MB).
#   The other su(n) arrays (structure_tensors' T_ijk and tensors) are
#   smaller.
# * --two-s: the spin superoperator L (channel.generator_action, built once
#   per verify suite and once by critical) is the largest array, d^2 x d^2
#   complex128, d = two_s + 1: 16 d^4 bytes, 256 MiB at d = 64, where it is
#   most of critical's peak (tracemalloc 273 MB).  Building it
#   holds one L and a d^3 block, and apply's depolarizing test one Choi matrix
#   of that size and its float abs (tracemalloc at d = 16: 1.06 L and 1.5 L).
# * --samples: a scan keeps each sample's k <= MAX_N^2 - 1 coordinates as a
#   float64, a Python float and report text, at most SCAN_BYTES_PER_COORD
#   in all (tracemalloc, 2000 and 10000 samples: a JSON su(10) scan peaks at
#   180 bytes and a CSV one at 109, while they write the report; the
#   sampler's (n, k + 2) normal draw peaks at 16 bytes and is freed before).
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


def _write(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _dump_json(obj, path: str | None) -> None:
    _write(textfmt.json_text(obj), path)


# Generator sets built by this process, keyed on the flags that size them.
# A set is frozen with read-only arrays, so requests can share it, and keeps
# the read-only tables built on first read: nonzero_terms (bloch_rho),
# pair_products (every reader of X_a X_b; k^2 d^2 complex128 entries, 15 MiB
# at su(10)) and, on spin sets only, pair_monomials.  The caps on --n and
# --two-s bound the memo to 9 su(n), 63 spin, g2 and Clifford sets: 4.7 MB of
# sets, 7.9 MB with their nonzero_terms, 29.5 MB once every spin set holds
# its tables and 60.5 MB once every set does, 31 MB of it the su(n) pair
# tables (tracemalloc); a failed build raises and is not stored.  From the
# set's first verify on, its entry also holds verify.measure(set), the suite
# rows that read no seed, so later verifies of the set run only the seeded
# checks: 1 to 3 kB a set, 0.13 MB for all of them (tracemalloc).  One reset
# of the memo drops both.
_GENSETS: dict = {}


@dataclasses.dataclass
class _Memo:
    genset: rg.GeneratorSet
    measured: verify.Measured | None = None   # from the set's first verify on


def _memo(args: argparse.Namespace) -> _Memo:
    key = (args.algebra, args.n, args.two_s)
    if key not in _GENSETS:
        _GENSETS[key] = _Memo(rg.build_algebra(args.algebra, n=args.n, two_s=args.two_s))
    return _GENSETS[key]


def _genset(args: argparse.Namespace) -> rg.GeneratorSet:
    return _memo(args).genset


# ---------------------------------------------------------------------------
# gen

def cmd_gen(args: argparse.Namespace) -> int:
    g = _genset(args)
    _dump_json({"generator_set": g.to_json(), "checks": dict(g.residuals)}, args.output_path)
    return 0


# ---------------------------------------------------------------------------
# apply

def _all_numbers(obj) -> bool:
    return all(map(_all_numbers, obj)) if type(obj) is list else type(obj) in (int, float)


def _real_array(obj, name: str) -> np.ndarray:
    try:
        array = np.asarray(obj, dtype=float)
    except (TypeError, ValueError, OverflowError):
        array = None
    # numpy reads JSON true/false as 1.0/0.0, numeric strings as numbers and
    # null as NaN; the check runs after the conversion, which bounds the
    # nesting depth it walks
    if array is None or not _all_numbers(obj):
        raise ValueError(f"{name} must be a (nested) list of real numbers")
    return array


def _load_rho(path: str, g: rg.GeneratorSet) -> mc.DensityMatrix:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except RecursionError:
            raise ValueError("--rho JSON is nested too deeply") from None
    if not isinstance(obj, dict):
        raise ValueError("--rho must hold a JSON object")
    if "v" in obj:
        v = _real_array(obj["v"], "v")
        if "w" not in obj:
            if v.ndim == 2:   # bloch_rho reads it as a stack, but --rho holds one state
                raise ValueError(f"expected one length-{g.k} coefficient vector v, not a stack")
            return mc.DensityMatrix(bl.bloch_rho(g, v))
        w = obj["w"]   # present, so null is a bad leaf like any other
        if isinstance(w, dict):
            if w.get("shape") != [3, 3]:
                raise ValueError("w 'shape' must be [3, 3]")
            w = _real_array(w.get("data"), "w 'data'").reshape(3, 3)
        else:
            w = _real_array(w, "w")
        # rho_vw reads an (n, 3) v as a stack, but --rho holds one state;
        # rho_vw's checks keep their order, the set's kind first
        rg.require_spin(g)
        if v.ndim != 1:
            raise ValueError("expected a 3-vector v and 3x3 tensor w")
        return mc.DensityMatrix(bl.rho_vw(g, v, w))
    return mc.DensityMatrix(mc.matrix_from_json(obj))


def cmd_apply(args: argparse.Namespace) -> int:
    g = _genset(args)
    channel = ch.build_channel(g, args.p)
    rho = _load_rho(args.rho, g)
    out = ch.apply(channel, rho)
    lam = ch.detect_depolarizing(channel)
    report = {
        "p": args.p,
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
    _dump_json(report, args.output_path)
    return 0


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args: argparse.Namespace) -> int:
    memo = _memo(args)
    if memo.measured is None:
        memo.measured = verify.measure(memo.genset)
    checks, info = verify.merge(memo.measured, verify.seeded_checks(memo.genset, args.seed))
    passed = all(c["pass"] for c in checks)
    report = {
        "algebra": args.algebra,
        "n": args.n,
        "two_s": args.two_s,
        "seed": args.seed,
        "checks": checks,
        "info": info,
        "passed": passed,
    }
    _dump_json(report, args.output_path)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# bloch-scan

def cmd_bloch_scan(args: argparse.Namespace) -> int:
    g = _genset(args)
    su3 = args.algebra == "su" and args.n == 3
    flags = ["member_eig", "member_charpoly"] + (["member_closed_form"] if su3 else [])
    vs = bl.sample_bloch_vectors(g, args.samples, seed=args.seed)
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
            columns["member_closed_form"] += bl.su3_membership_closed(part).tolist()
    if args.fmt == "json":
        rows = zip(vs.tolist(), *columns.values())
        _dump_json([dict(zip(["v", *columns], row)) for row in rows], args.output_path)
        return 0
    # each number is its '%.17g' text, signed zeros and non-finite values included
    numbers = textfmt.format_rows(np.column_stack([vs, columns.pop("min_eigenvalue")]))
    words = {True: ",true", False: ",false"}
    lines = [",".join([f"v_{i}" for i in range(g.k)] + ["min_eigenvalue"] + flags)]
    lines += map("".join, zip(numbers, *[[words[f] for f in col] for col in columns.values()]))
    _write("\n".join(lines) + "\n", args.output_path)
    return 0


# ---------------------------------------------------------------------------
# critical

def cmd_critical(args: argparse.Namespace) -> int:
    g = _genset(args)
    decomp = ch.critical_values(g, max_rank=args.max_rank)
    _dump_json(decomp.to_json(), args.output_path)
    return 0


# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first request of a process and
    reused by later ones (parse_args keeps its state in a fresh namespace)."""
    parser = argparse.ArgumentParser(
        prog="liechan",
        description="Quantum channels from Lie algebra representations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--algebra", choices=("su", "spin", "g2", "clifford"), required=True)
        p.add_argument("--n", type=int, default=None, help="su(n) dimension")
        p.add_argument("--two-s", dest="two_s", type=int, default=None,
                       help="twice the spin (d = two_s + 1)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", dest="output_path", default=None)
        # argparse reads only -N and -N.N as negative numbers and other values
        # after a '-' as options; --p -1e-3 or -inf must reach the range check
        p._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)
        return p

    command("gen", cmd_gen, "dump a generator set")
    p_apply = command("apply", cmd_apply, "apply a channel to a density matrix")
    p_apply.add_argument("--p", type=float, default=0.0, help="error probability")
    p_apply.add_argument("--rho", required=True, help="density matrix JSON file")
    command("verify", cmd_verify, "run the identity suite")
    p_scan = command("bloch-scan", cmd_bloch_scan, "sample Bloch manifold membership")
    p_scan.add_argument("--samples", type=int, default=1000)
    p_scan.add_argument("--format", dest="fmt", choices=("json", "csv"), default="csv")
    p_crit = command("critical", cmd_critical, "critical error probabilities")
    p_crit.add_argument("--max-rank", dest="max_rank", type=int, default=2)
    return parser


def _checked(args: argparse.Namespace) -> argparse.Namespace:
    """The parsed request with its seed resolved (--seed, then LIECHAN_SEED,
    then 0), once its sizes and seed pass the checks that run before anything
    is built or sampled."""
    if args.seed is None:
        env = os.environ.get("LIECHAN_SEED", "0")
        try:
            args.seed = int(env)
        except ValueError:
            raise ValueError(f"LIECHAN_SEED must be a non-negative integer, got {env!r}") from None
    for flag, value, algebra in (("--n", args.n, "su"), ("--two-s", args.two_s, "spin")):
        if value is not None and args.algebra != algebra:
            raise ValueError(f"{flag} applies only to --algebra {algebra}, not {args.algebra}")
    samples = getattr(args, "samples", None)
    if samples is not None and samples < 1:
        raise ValueError("--samples must be >= 1")
    for flag, value, bound in (("--n", args.n, MAX_N), ("--two-s", args.two_s, MAX_TWO_S),
                               ("--samples", samples, MAX_SAMPLES)):
        if value is not None and value > bound:
            raise ValueError(f"{flag} must be <= {bound} (the {ARRAY_BUDGET >> 20} MiB array budget)")
    if args.seed < 0:
        raise ValueError("--seed (or LIECHAN_SEED) must be >= 0")
    return args


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(_checked(args))
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
