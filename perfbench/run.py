"""Benchmark of the liechan CLI, driven in-process through ``liechan.cli.main``.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
One client in one process runs the workload's job list (a "pass") again and
again, each job only after the previous one finished (a closed loop), until
``--seconds`` have passed.  Every report is checked against a plain-numpy
reference.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics; with ``--trace 1`` each pass runs twice, untraced and then traced,
and the line carries the per-layer metrics.  See perfbench/README.md.
"""

import os

# Pin BLAS threads before numpy is imported, here and in child processes, so
# that runs on a small machine measure the program, not the scheduler.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Callable  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import SU3, WORKLOADS, Workload  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
MIN_PASSES = 3
SETUP_REPEATS = 7
SHELL_RAYS = 40

# Timed in a fresh interpreter: import liechan (numpy already imported, so
# only the package's own import is measured) and build each generator set.
SETUP_CHILD = """
import json, sys, time
import numpy
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import liechan.repgen
for algebra, n, two_s in json.loads(sys.argv[2]):
    liechan.repgen.build_algebra(algebra, n=n, two_s=two_s)
print(time.perf_counter() - t0)
"""


@dataclass
class Job:
    kind: str                  # CLI subcommand
    label: str                 # generator set
    argv: list
    check: Callable            # report (dict, or CSV text for bloch-scan) -> ok


@dataclass
class PassResult:
    wall_s: float = 0.0
    scan_rows: int = 0
    scan_s: float = 0.0
    critical_s: float = 0.0
    verify_s: float = 0.0
    apply_ms: list = field(default_factory=list)
    gen_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    tallies: dict = field(default_factory=dict)   # label -> OracleTally

    def tally(self, label: str) -> checks.OracleTally:
        return self.tallies.setdefault(label, checks.OracleTally())


class Bench:
    def __init__(self, workload: Workload, seed: int, tmp: Path):
        from liechan import bloch, cli, repgen

        self.workload, self.seed, self.tmp = workload, seed, tmp
        self.cli, self.bloch = cli, bloch
        self.out_path = tmp / "out"
        self.gensets = {a.label: repgen.build_algebra(a.algebra, n=a.n, two_s=a.two_s)
                        for a in workload.algebras()}
        self.stacks = {label: inputs.reference_stack(g.generators, label != "clifford")
                       for label, g in self.gensets.items()}
        self.jobs = self._jobs(np.random.default_rng([seed, 1]))
        shell_rng = np.random.default_rng([seed, 2])
        self.shell = [
            (a.label, v, inputs.is_member(self.stacks[a.label], v))
            for a in workload.shell
            for v in inputs.shell_vectors(self.stacks[a.label], shell_rng, SHELL_RAYS)
        ]

    def _jobs(self, rng: np.random.Generator) -> list:
        wl, jobs, stream = self.workload, [], []
        for alg, samples in wl.scans:
            stack = self.stacks[alg.label]
            jobs.append(Job("bloch-scan", alg.label,
                            ["bloch-scan", *alg.argv(), "--samples", str(samples)],
                            lambda text, s=stack, n=samples: checks.check_scan(text, s, n)))
        for alg, rank in wl.critical:
            jobs.append(Job("critical", alg.label,
                            ["critical", *alg.argv(), "--max-rank", str(rank)],
                            lambda rep, n=alg.n if alg.algebra == "su" else None:
                            checks.check_critical(rep, n)))
        for alg, copies in wl.verify:
            jobs += [Job("verify", alg.label, ["verify", *alg.argv()], checks.check_verify)
                     for _ in range(copies)]
        for alg, count in wl.applies:
            stack = self.stacks[alg.label]
            forms = ("raw", "v", "vw") if alg.algebra == "spin" and alg.two_s >= 2 else ("raw", "v")
            for case in inputs.write_apply_inputs(self.tmp, alg.label, stack, forms, count, rng):
                stream.append(Job("apply", alg.label,
                                  ["apply", *alg.argv(), "--p", repr(case.p), "--rho", str(case.path)],
                                  lambda rep, s=stack, c=case: checks.check_apply(rep, s, c)))
        stream += [Job("gen", alg.label, ["gen", *alg.argv()], checks.check_gen) for alg in wl.gens]
        rng.shuffle(stream)
        return stream + jobs

    def _call_main(self, argv: list, tracer: Tracer | None):
        try:
            if tracer is None:
                return self.cli.main(argv)
            return tracer.call(f"cli.{argv[0]}", self.cli.main, argv)
        except SystemExit as exc:
            return exc.code
        except Exception:   # a crash is a failed operation; keep running
            traceback.print_exc()
            return None

    def _run_job(self, job: Job, cli_seed: int, res: PassResult, tracer: Tracer | None) -> None:
        self.out_path.unlink(missing_ok=True)
        argv = job.argv + ["--seed", str(cli_seed), "--out", str(self.out_path)]
        t0 = time.perf_counter()
        rc = self._call_main(argv, tracer)
        elapsed = time.perf_counter() - t0
        ok = rc == 0 and self.out_path.exists()
        try:
            if ok and job.kind == "bloch-scan":
                ok, tally = job.check(self.out_path.read_text())
                res.tally(job.label).add(tally)
                res.scan_rows += tally.rows
            elif ok:
                ok = job.check(json.loads(self.out_path.read_text()))
        except (KeyError, IndexError, TypeError, ValueError, StopIteration):
            ok = False   # a report missing what the reference check reads
        if job.kind == "apply":
            res.apply_ms.append(elapsed * 1e3)
        elif job.kind == "gen":
            res.gen_ms.append(elapsed * 1e3)
        elif job.kind == "bloch-scan":
            res.scan_s += elapsed
        elif job.kind == "critical":
            res.critical_s += elapsed
        elif job.kind == "verify":
            res.verify_s += elapsed
        res.attempted += 1
        if not ok:
            res.failed += 1
            print(f"perfbench: failed: {' '.join(argv)} (exit {rc})", file=sys.stderr)

    def _shell_pass(self, res: PassResult) -> None:
        """membership_eig must match the reference; charpoly and the su(3)
        closed form are tallied against it."""
        bl = self.bloch
        for label, v, ref in self.shell:
            g = self.gensets[label]
            res.attempted += 1
            res.failed += bl.membership_eig(g, v) != ref
            answers = [bl.membership_charpoly(g, v)]
            if label == SU3.label:
                answers.append(bl.su3_membership_closed(v))
            t = res.tally(label)
            t.checked += len(answers)
            t.disagree += sum(a != ref for a in answers)

    def run_pass(self, index: int, tracer: Tracer | None) -> PassResult:
        """One pass of the job list; CLI seeds depend on (seed, pass, job)."""
        res = PassResult()
        seeds = np.random.default_rng([self.seed, 3, index]).integers(0, 2**31, len(self.jobs))

        def body():
            for j, job in enumerate(self.jobs):
                if tracer is not None:
                    tracer.request = j
                self._run_job(job, int(seeds[j]), res, tracer)
            if tracer is not None:
                tracer.request = None
            self._shell_pass(res)

        if tracer is not None:
            layers.install(tracer)
        t0 = time.perf_counter()
        try:
            body() if tracer is None else tracer.call("bench.pass", body)
        finally:
            res.wall_s = time.perf_counter() - t0
            if tracer is not None:
                tracer.unpatch()
        return res


def setup_sample(workload: Workload) -> float:
    builds = json.dumps([[a.algebra, a.n, a.two_s] for a in workload.algebras()])
    proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), builds],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"setup child failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args, liechan_version: str) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "liechan": liechan_version, "numpy": np.__version__,
        "python": platform.python_version(), "git_commit": git_commit(),
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "blas": blas.get("name", "unknown"),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def end_to_end(passes: list, setup: list) -> tuple[dict, dict]:
    med = statistics.median
    agree = sum(t.checked - t.disagree for r in passes for t in r.tallies.values())
    checked = sum(t.checked for r in passes for t in r.tallies.values())
    apply_ms = [x for r in passes for x in r.apply_ms]
    gen_ms = [x for r in passes for x in r.gen_ms]
    return {
        "setup_s": (med(setup), "s"),
        "wall_s": (med([r.wall_s for r in passes]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "scan_samples_per_s": (sum(r.scan_rows for r in passes) / sum(r.scan_s for r in passes),
                               "rows/s"),
        "oracle_agree_frac": (agree / checked, "frac"),
        "critical_s": (med([r.critical_s for r in passes]), "s"),
        "verify_s": (med([r.verify_s for r in passes]), "s"),
        "apply_p50_ms": (float(np.percentile(apply_ms, 50)), "ms"),
        "apply_p90_ms": (float(np.percentile(apply_ms, 90)), "ms"),
        "gen_p50_ms": (float(np.percentile(gen_ms, 50)), "ms"),
    }, {"oracle_checked": checked, "apply_requests": len(apply_ms), "gen_requests": len(gen_ms)}


def run_passes(bench: Bench, args) -> tuple[list, list, list, Tracer]:
    """Passes until ``args.seconds`` have passed (at least MIN_PASSES).
    Untraced runs also take the set-up samples; traced runs repeat each
    pass with tracing on."""
    setup, passes, traced = [], [], []
    tracer = Tracer()
    start = time.perf_counter()
    index = 0
    while index < MIN_PASSES or time.perf_counter() - start < args.seconds:
        # Spread the set-up samples over the run, so that they see the same
        # machine conditions as the passes.
        elapsed = time.perf_counter() - start
        if not args.trace and len(setup) * args.seconds <= SETUP_REPEATS * elapsed:
            setup.append(setup_sample(bench.workload))
        passes.append(bench.run_pass(index, None))
        if args.trace:
            traced.append(bench.run_pass(index, tracer))
        index += 1
    while not args.trace and len(setup) < SETUP_REPEATS:
        setup.append(setup_sample(bench.workload))
    return setup, passes, traced, tracer


def per_layer(args, passes: list, traced: list, tracer: Tracer) -> tuple[dict, Path]:
    tallies: dict = {}
    for r in traced:
        for label, t in r.tallies.items():
            tallies.setdefault(label, checks.OracleTally()).add(t)
    plain = statistics.median(r.wall_s for r in passes)
    overhead = (statistics.median(r.wall_s for r in traced) - plain) / plain
    trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
    with open(trace_file, "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.request, s.info]) + "\n")
    return layers.metrics(tracer, len(traced), tallies, overhead), trace_file


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "liechan" / "__init__.py").is_file():
        print(f"perfbench: no liechan sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import liechan

    if Path(liechan.__file__).resolve().parent != (SRC / "liechan").resolve():
        print(f"perfbench: imported liechan from {liechan.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    tmp = OUT_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, tmp)
        setup, passes, traced, tracer = run_passes(bench, args)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    meta = metadata(args, liechan.__version__)
    meta["pass_wall_s"] = [r.wall_s for r in passes]
    if args.trace:
        metrics, trace_file = per_layer(args, passes, traced, tracer)
        meta["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        metrics, bases = end_to_end(passes, setup)
        meta.update(bases, setup_samples_s=setup)
    attempted = sum(r.attempted for r in passes + traced)
    failed = sum(r.failed for r in passes + traced)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"metadata": meta, **result}, indent=1))
    print(f"error_rate: {failed}/{attempted}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}", file=sys.stderr)
    print(json.dumps({"metadata": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
