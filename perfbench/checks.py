"""Reference checks of each CLI report, in plain numpy.

Each check returns True when the report is correct.  Disagreements of the
charpoly and closed-form membership oracles are not errors: they are counted
in ``OracleTally`` and reported as ``oracle_agree_frac``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import inputs


@dataclass
class OracleTally:
    rows: int = 0          # bloch-scan rows
    members: int = 0       # rows inside the manifold by the reference
    checked: int = 0       # oracle answers compared with the reference
    disagree: int = 0

    def add(self, other: "OracleTally") -> None:
        self.rows += other.rows
        self.members += other.members
        self.checked += other.checked
        self.disagree += other.disagree


def check_gen(report: dict) -> bool:
    return all(r <= inputs.GEN_RESIDUAL_TOL for r in report["checks"].values())


def check_apply(report: dict, stack: np.ndarray, case: inputs.ApplyInput) -> bool:
    out = inputs.matrix_from_json(report["output"])
    expected = inputs.channel(stack, case.p, case.rho)
    return bool(
        np.abs(out - expected).max() <= inputs.MATCH_TOL
        and abs(np.trace(out) - 1.0) <= inputs.MATCH_TOL
        and np.linalg.eigvalsh(out)[0] >= -inputs.PSD_TOL
    )


def check_verify(report: dict) -> bool:
    return report["passed"] is True


def check_critical(report: dict, n: int | None) -> bool:
    """Every reported ``verified`` is true; for su(n) the rank-1 critical
    probability is 1 - 1/n^2."""
    entries = report["entries"]
    if any(e["verified"] is False for e in entries):
        return False
    if n is None:
        return True
    rank1 = next(e for e in entries if e["rank"] == 1)
    return rank1["p"] is not None and math.isclose(rank1["p"], 1.0 - 1.0 / n**2, abs_tol=1e-9)


def check_scan(csv_text: str, stack: np.ndarray, samples: int) -> tuple[bool, OracleTally]:
    """The member_eig column must equal the reference; the charpoly and
    (su(3)) closed-form columns are tallied against it."""
    lines = csv_text.splitlines()
    header = lines[0].split(",")
    k = stack.shape[0]
    col = {name: i for i, name in enumerate(header)}
    oracles = [c for c in ("member_charpoly", "member_closed_form") if c in col]
    tally = OracleTally()
    ok = len(lines) - 1 == samples
    for line in lines[1:]:
        cells = line.split(",")
        ref = inputs.is_member(stack, [float(x) for x in cells[:k]])
        ok = ok and (cells[col["member_eig"]] == "true") == ref
        tally.rows += 1
        tally.members += ref
        for c in oracles:
            tally.checked += 1
            tally.disagree += (cells[col[c]] == "true") != ref
    return ok, tally
