"""Seeded inputs and plain-numpy references.

Everything here uses numpy only.  The generator matrices come from the
library once, before timing, and are checked here (Hermitian, traceless
unless Clifford, sum of squares a multiple of the identity); the channel,
Bloch-state, density-matrix and JSON arithmetic is re-done independently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PSD_TOL = 1e-10       # the library's membership / PSD tolerance
MATCH_TOL = 1e-9      # channel output vs reference, max abs entry
GEN_RESIDUAL_TOL = 1e-9
SHELL_DELTAS = (1e-2, 1e-4, 1e-6)


def reference_stack(gens, traceless: bool) -> np.ndarray:
    stack = np.array([np.asarray(g, dtype=complex) for g in gens])
    d = stack.shape[1]
    sq = np.einsum("aij,ajk->ik", stack, stack)
    if (
        np.abs(stack - stack.conj().transpose(0, 2, 1)).max() > 1e-10
        or (traceless and np.abs(np.einsum("aii->a", stack)).max() > 1e-10)
        or np.abs(sq - np.trace(sq).real / d * np.eye(d)).max() > 1e-9
    ):
        raise ValueError("generator set fails the reference checks")
    return stack


def bloch_rho(stack: np.ndarray, v) -> np.ndarray:
    d = stack.shape[1]
    return (np.eye(d) + np.einsum("a,aij->ij", np.asarray(v, dtype=float), stack)) / d


def is_member(stack: np.ndarray, v) -> bool:
    return bool(np.linalg.eigvalsh(bloch_rho(stack, v))[0] >= -PSD_TOL)


def channel(stack: np.ndarray, p: float, rho: np.ndarray) -> np.ndarray:
    """(1-p) rho + (p/Z) sum_i X_i rho X_i with Z = tr(sum X_i^2)/d."""
    d = stack.shape[1]
    z = np.einsum("aij,aji->", stack, stack).real / d
    return (1.0 - p) * rho + (p / z) * np.einsum("aij,jk,akl->il", stack, rho, stack)


def boundary_radius(stack: np.ndarray, u: np.ndarray) -> float:
    """r(u) = -1/lambda_min(u.X): rho(t u) is PSD exactly for t <= r(u)."""
    return -1.0 / np.linalg.eigvalsh(np.einsum("a,aij->ij", u, stack))[0]


def unit_direction(rng: np.random.Generator, k: int) -> np.ndarray:
    u = rng.normal(size=k)
    return u / np.linalg.norm(u)


def shell_vectors(stack: np.ndarray, rng: np.random.Generator, rays: int) -> list[np.ndarray]:
    """Vectors at r(u)(1 - delta) and r(u)(1 + delta) along random rays."""
    out = []
    for _ in range(rays):
        u = unit_direction(rng, stack.shape[0])
        r = boundary_radius(stack, u)
        for delta in SHELL_DELTAS:
            out += [r * (1.0 - delta) * u, r * (1.0 + delta) * u]
    return out


# ---------------------------------------------------------------------------
# Request files for `apply`, in the three input forms the CLI reads.

@dataclass(frozen=True)
class ApplyInput:
    path: Path
    form: str
    p: float
    rho: np.ndarray      # the density matrix the file describes


def _matrix_json(m: np.ndarray) -> dict:
    return {"dim": m.shape[0], "entries": [[float(z.real), float(z.imag)] for z in m.ravel()]}


def matrix_from_json(obj: dict) -> np.ndarray:
    d = obj["dim"]
    return np.array([complex(re, im) for re, im in obj["entries"]]).reshape(d, d)


def _raw(stack, rng):
    d = stack.shape[1]
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    rho = m / np.trace(m).real
    obj = _matrix_json(rho)
    return obj, matrix_from_json(obj)


def _v(stack, rng):
    u = unit_direction(rng, stack.shape[0])
    v = rng.uniform(0.2, 0.8) * boundary_radius(stack, u) * u
    v = [float(x) for x in v]
    return {"v": v}, bloch_rho(stack, v)


def _vw(stack, rng):
    """rho = v.J + sum_ab w_ab (J_a J_b + J_b J_a)/2, tr(w) = 3/(d s(s+1)),
    scaled towards I/d until its smallest eigenvalue is at least 0.2/d."""
    d = stack.shape[1]
    lam = np.einsum("aij,aji->", stack, stack).real / d
    pair = np.einsum("aij,bjk->abik", stack, stack)
    pair = (pair + pair.transpose(1, 0, 2, 3)) / 2.0

    def rho_of(v, w):
        return np.einsum("a,aij->ij", v, stack) + np.einsum("ab,abij->ij", w, pair)

    base = np.eye(3) / (d * lam)
    dw = rng.normal(size=(3, 3)) * 0.2
    dw = (dw + dw.T) / 2.0
    dw -= np.eye(3) * np.trace(dw) / 3.0
    v = rng.normal(size=3) * 0.2
    lo = np.linalg.eigvalsh(rho_of(v, base + dw) - np.eye(d) / d)[0]
    scale = min(1.0, 0.8 / (d * -lo)) if lo < 0 else 1.0
    v = [float(x) for x in scale * v]
    w = [[float(x) for x in row] for row in base + scale * dw]
    return {"v": v, "w": w}, rho_of(np.array(v), np.array(w))


FORMS = {"raw": _raw, "v": _v, "vw": _vw}


def write_apply_inputs(
    directory: Path, label: str, stack: np.ndarray, forms: tuple, count: int,
    rng: np.random.Generator,
) -> list[ApplyInput]:
    """``count`` request files for one algebra, cycling through ``forms``,
    each with its own error probability p in [0, 1]."""
    out = []
    for i in range(count):
        form = forms[i % len(forms)]
        obj, rho = FORMS[form](stack, rng)
        path = directory / f"rho-{label}-{i}.json"
        path.write_text(json.dumps(obj))
        out.append(ApplyInput(path, form, float(rng.uniform(0.0, 1.0)), rho))
    return out
