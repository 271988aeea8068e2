"""Which library functions the traced run wraps, and the per-layer metrics
computed from the spans they record.

Counts and times are per pass of the workload's job list; ratios are taken
over all traced passes.  ``us_per_sample`` of the membership oracles is the
whole call (bloch_rho and char_poly_coeffs included), since a batched
engine would replace the whole call; every ``self_s`` excludes child spans.
"""

from __future__ import annotations

import math
import sys

from checks import OracleTally
from tracer import SpanStats, Tracer
from workloads import SCAN_ALGEBRAS

PACKAGE = "liechan"
CLI_COMMANDS = ("gen", "apply", "verify", "bloch-scan", "critical")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# (module, attribute, span name, describe(args, kwargs) -> span info)
TARGETS = (
    ("liechan.repgen", "gell_mann", "repgen.build", lambda a, k: ("su", _arg(a, k, 0, "n"))),
    ("liechan.repgen", "spin_rep", "repgen.build", lambda a, k: ("spin", _arg(a, k, 0, "two_s"))),
    ("liechan.repgen", "g2_rep", "repgen.build", lambda a, k: ("g2", None)),
    ("liechan.repgen", "clifford_weyl", "repgen.build", lambda a, k: ("clifford", None)),
    ("liechan.repgen", "structure_tensors", "repgen.structure_tensors", None),
    ("liechan.channel", "find_identity", "channel.find_identity",
     lambda a, k: (_arg(a, k, 1, "r"), _arg(a, k, 0, "g").k)),
    ("liechan.channel", "critical_values", "channel.critical_values", None),
    ("liechan.channel", "detect_depolarizing", "channel.detect_depolarizing", None),
    ("liechan.channel", "apply_matrix", "channel.apply_matrix", None),
    ("liechan.channel", "build_channel", "channel.build_channel", None),
    ("liechan.matcore", "sym_product", "matcore.sym_product", None),
    ("liechan.matcore", "char_poly_coeffs", "matcore.char_poly_coeffs", None),
    ("liechan.matcore", "DensityMatrix.__post_init__", "matcore.DensityMatrix", None),
    ("liechan.matcore", "matrix_to_json", "matcore.json", None),
    ("liechan.matcore", "matrix_from_json", "matcore.json", None),
    ("liechan.bloch", "membership_eig", "bloch.membership_eig", None),
    ("liechan.bloch", "membership_charpoly", "bloch.membership_charpoly", None),
    ("liechan.bloch", "su3_membership_closed", "bloch.su3_membership_closed", None),
    ("liechan.bloch", "bloch_rho", "bloch.bloch_rho", None),
    ("liechan.bloch", "sample_bloch_vectors", "bloch.sample_bloch_vectors", None),
    ("liechan.bloch", "spin_vw_purity_search", "bloch.spin_vw_purity_search", None),
)


def install(tracer: Tracer) -> None:
    """Wrap every target; one that no longer exists does no work and reads 0."""
    for module, attr, name, describe in TARGETS:
        try:
            tracer.patch(PACKAGE, module, attr, name, describe)
        except (KeyError, AttributeError):
            print(f"perfbench: {module}.{attr} not found; not traced", file=sys.stderr)


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if ".us_per_" in name:
        return "us"
    if "_frac" in name:
        return "frac"
    return "count"


def metrics(tracer: Tracer, passes: int, tallies: dict[str, OracleTally],
            overhead_frac: float) -> dict[str, tuple[float, str]]:
    stats = tracer.stats()
    own = tracer.self_times()

    def st(name: str) -> SpanStats:
        return stats.get(name, SpanStats())

    def per_call_us(s: SpanStats, inclusive: bool) -> float:
        return (s.total_s if inclusive else s.self_s) / s.calls * 1e6 if s.calls else 0.0

    out: dict[str, float] = {}
    for name in ("repgen.structure_tensors", "channel.critical_values",
                 "channel.detect_depolarizing", "channel.build_channel",
                 "matcore.sym_product", "matcore.char_poly_coeffs", "matcore.DensityMatrix",
                 "matcore.json", "bloch.sample_bloch_vectors", "bloch.spin_vw_purity_search",
                 "repgen.build"):
        out[f"{name}.self_s"] = st(name).self_s / passes
    for name in ("repgen.build", "channel.apply_matrix", "matcore.sym_product",
                 "matcore.DensityMatrix", "bloch.bloch_rho"):
        out[f"{name}.calls"] = st(name).calls / passes
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}.self_s"] = st(f"cli.{cmd}").self_s / passes

    builds = repeats = 0
    seen: set = set()
    rank_s = {1: 0.0, 2: 0.0, 3: 0.0}
    monomials = depol_applies = 0
    for span, span_own in zip(tracer.spans, own):
        if span.name == "bench.pass":
            seen = set()
        elif span.name == "repgen.build":
            builds += 1
            repeats += span.info in seen
            seen.add(span.info)
        elif span.name == "channel.find_identity":
            r, k = span.info
            rank_s[r] = rank_s.get(r, 0.0) + span_own
            monomials += math.comb(k + r - 1, r)
        elif (span.name == "channel.apply_matrix" and span.parent is not None
              and tracer.spans[span.parent].name == "channel.detect_depolarizing"):
            depol_applies += 1
    out["repgen.build.repeat_frac"] = repeats / builds if builds else 0.0
    for r in (1, 2, 3):
        out[f"channel.find_identity.r{r}_s"] = rank_s[r] / passes
    out["channel.find_identity.monomials"] = monomials / passes
    depol = st("channel.detect_depolarizing").calls
    out["channel.detect_depolarizing.applies_per_call"] = depol_applies / depol if depol else 0.0
    out["channel.apply_matrix.us_per_call"] = per_call_us(st("channel.apply_matrix"), False)
    for name in ("membership_eig", "membership_charpoly", "su3_membership_closed"):
        out[f"bloch.{name}.us_per_sample"] = per_call_us(st(f"bloch.{name}"), True)

    for alg in SCAN_ALGEBRAS:
        t = tallies.get(alg.label, OracleTally())
        out[f"bloch.member_frac.{alg.label}"] = t.members / t.rows if t.rows else 0.0
        out[f"bloch.scan_rows.{alg.label}"] = t.rows / passes
        out[f"bloch.oracle_disagree.{alg.label}"] = t.disagree / passes
        out[f"bloch.oracle_checked.{alg.label}"] = t.checked / passes
    out["trace.overhead_frac"] = overhead_frac
    out["trace.passes"] = float(passes)
    return {name: (value, unit(name)) for name, value in out.items()}
