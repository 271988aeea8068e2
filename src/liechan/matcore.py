"""Dense complex matrix kernel.

Everything downstream (generator sets, Kraus channels, Bloch scans) works
with small dense ``numpy`` arrays of dtype complex128.  This module holds
the shared primitives: products, traces, symmetrized products, Hermitian
eigensolves, characteristic-polynomial coefficients via power traces, the
validated ``DensityMatrix`` wrapper, and the JSON wire format for matrices.

All functions are pure and never mutate their arguments; dimensions stay
small (<= ~64), so double precision leaves a wide margin under the
tolerances declared below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, permutations
from typing import Sequence

import numpy as np

# Tolerances used across the package.
HERMITIAN_TOL = 1e-10     # max-norm deviation from self-adjointness
TRACE_TOL = 1e-10         # |tr(rho) - 1|
PSD_TOL = 1e-10           # min eigenvalue >= -PSD_TOL
EIG_INPUT_TOL = 1e-8      # Hermiticity required of eigensolver inputs
EIG_RECON_TOL = 1e-9      # ||m - Q diag(w) Q^dag||_max after eigensolve


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a square complex128 array with finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return a


def max_abs(m) -> float:
    """Entrywise max-norm."""
    return float(np.abs(m).max()) if np.asarray(m).size else 0.0


def trace(m) -> complex:
    return complex(np.trace(as_complex_matrix(m)))


def commutator(a, b) -> np.ndarray:
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def anticommutator(a, b) -> np.ndarray:
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b + b @ a


def is_hermitian(m, tol: float = HERMITIAN_TOL) -> bool:
    """Every matrix of ``m`` (one matrix, or a stack over leading axes) is
    self-adjoint within ``tol`` in max-norm."""
    m = np.asarray(m)
    return max_abs(m - m.conj().swapaxes(-1, -2)) <= tol


def sym_product(mats: Sequence) -> np.ndarray:
    """Average of the ordered products over all permutations of the input.

    For two factors this is (AB + BA)/2; one factor is returned as is (a
    copy, signed zeros included).  The result is invariant under any
    reordering of the input list: it is the one-multiset case of the fold
    :func:`sym_monomials` runs.
    """
    ms = [as_complex_matrix(m) for m in mats]
    if not ms:
        raise ValueError("sym_product needs at least one matrix")
    d = ms[0].shape[0]
    if any(m.shape != (d, d) for m in ms):
        raise ValueError("dimension mismatch in sym_product")
    if len(ms) == 1:
        return ms[0].copy()
    return _sym_fold(np.stack(ms), [tuple(range(len(ms)))])[0]


def sym_monomials(mats: Sequence, r: int) -> tuple[tuple, np.ndarray]:
    """Every symmetrized rank-r monomial of ``mats``, built batched.

    Returns the multisets in ``combinations_with_replacement`` order and a
    ``(C(k+r-1, r), d, d)`` array whose slice ``j`` is bitwise equal to
    ``sym_product([mats[i] for i in multisets[j]])``, since both run the
    same fold.  For r = 1 the slices are the matrices as given.
    """
    if r < 1:
        raise ValueError("rank r must be >= 1")
    stack = np.stack([as_complex_matrix(m) for m in mats])  # ValueError for none or mixed shapes
    multisets = tuple(combinations_with_replacement(range(len(stack)), r))
    return multisets, (stack if r == 1 else _sym_fold(stack, multisets))


def _sym_fold(stack: np.ndarray, multisets) -> np.ndarray:
    """Symmetrized products of the stacked matrices over each index multiset:
    the factors in content-key order, so the result is bitwise reproducible
    under any reordering, the permutations summed in ``permutations()`` order
    as left folds, and the sum divided by r! last."""
    keys = [m.tobytes() for m in stack]
    # factors[j] lists the indices of multiset j in key order
    factors = np.array([sorted(s, key=keys.__getitem__) for s in multisets], dtype=np.intp)
    r = factors.shape[1]
    total = np.zeros((len(factors),) + stack.shape[1:], dtype=np.complex128)
    for perm in permutations(range(r)):
        acc = stack[factors[:, perm[0]]]
        for i in perm[1:]:
            acc = acc @ stack[factors[:, i]]
        total += acc
    total /= math.factorial(r)
    return total


def symmetric_tensor(multisets, values, k: int) -> np.ndarray:
    """The fully symmetric ``(k,) * r`` tensor holding ``values[j]`` at every
    index permutation of ``multisets[j]``, for rank-r multisets that cover
    every index tuple (all of ``combinations_with_replacement(range(k), r)``)."""
    idx = np.array(multisets, dtype=np.intp)
    r = idx.shape[1]
    out = np.empty((k,) * r)
    for perm in permutations(range(r)):
        out[tuple(idx[:, perm].T)] = values
    return out


def hermitian_eigenvalues(m) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending.

    The input must be Hermitian within ``EIG_INPUT_TOL``; the decomposition
    is verified to reconstruct the input within ``EIG_RECON_TOL``.
    """
    m = as_complex_matrix(m)
    if not is_hermitian(m, EIG_INPUT_TOL):
        raise ValueError("matrix is not Hermitian within 1e-8")
    w, q = np.linalg.eigh(m)
    resid = max_abs(m - (q * w) @ q.conj().T)
    if resid > EIG_RECON_TOL:
        raise ArithmeticError(f"eigendecomposition residual {resid:.3e} > {EIG_RECON_TOL}")
    return w


def min_eigenvalue(m) -> float:
    return float(hermitian_eigenvalues(m)[0])


def char_poly_coeffs(m) -> np.ndarray:
    """Coefficients a_0..a_d of det(xI - m) = sum_j (-1)^j a_j x^(d-j).

    Computed from the power traces c_q = tr(m^q) by :func:`newton_recursion`.
    For a Hermitian matrix the a_j are the elementary symmetric polynomials of
    the (real) eigenvalues, so all of them are nonnegative exactly when the
    matrix is positive semidefinite.

    ``m`` is one (d, d) matrix or an (n, d, d) stack; the result is (d + 1,)
    or (d + 1, n), the sample axis last, and each column is bitwise what the
    matrix alone gives.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or an (n, d, d) stack, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    if not is_hermitian(m, EIG_INPUT_TOL):
        raise ValueError("char_poly_coeffs expects a Hermitian matrix")
    c, power = [], np.eye(m.shape[-1], dtype=np.complex128)
    for _ in range(m.shape[-1]):
        power = power @ m
        c.append(power.trace(axis1=-2, axis2=-1).real)
    a = np.empty((len(c) + 1,) + m.shape[:-2])
    a[0] = 1.0
    a[1:] = newton_recursion(c)[1:]
    return a


def newton_recursion(c: Sequence) -> list:
    """a_0 = 1 (an int), a_1, ..., a_n from the power sums c_1..c_n, given as
    ``c[q - 1]``, by Newton's identities a_k = (1/k) sum_{q=1..k} (-1)^(q-1)
    c_q a_{k-q}.  The c_q may be numbers, float arrays (one recursion per
    entry) or ``Polynomial`` objects with ``Fraction`` coefficients (exact)."""
    signed = [cq if q % 2 == 0 else -cq for q, cq in enumerate(c)]   # (-1)^(q-1) c_q
    a = [1]
    for k in range(1, len(c) + 1):
        a.append(sum(signed[q - 1] * a[k - q] for q in range(1, k + 1)) / k)
    return a


def readonly_copy(a) -> np.ndarray:
    """A complex128 copy of ``a`` that cannot be written to."""
    a = np.array(a, dtype=np.complex128, copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated density matrix: Hermitian, unit trace, positive semidefinite."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = as_complex_matrix(self.matrix)
        herm = max_abs(m - m.conj().T)
        if herm > HERMITIAN_TOL:
            raise ValueError(f"not Hermitian: deviation {herm:.3e} > {HERMITIAN_TOL}")
        tr_err = abs(np.trace(m) - 1.0)
        if tr_err > TRACE_TOL:
            raise ValueError(f"trace deviates from 1 by {tr_err:.3e} > {TRACE_TOL}")
        lo = float(np.linalg.eigvalsh(m)[0])
        if lo < -PSD_TOL:
            raise ValueError(f"not positive semidefinite: min eigenvalue {lo:.3e}")
        object.__setattr__(self, "matrix", readonly_copy(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def maximally_mixed(cls, d: int) -> "DensityMatrix":
        return cls(np.eye(d) / d)

    @classmethod
    def from_pure(cls, psi) -> "DensityMatrix":
        v = np.asarray(psi, dtype=np.complex128).ravel()
        n = np.linalg.norm(v)
        if abs(n - 1.0) > 1e-10:
            raise ValueError(f"state vector norm deviates from 1 by {abs(n - 1.0):.3e}")
        return cls(np.outer(v, v.conj()))

    def to_json(self) -> dict:
        return matrix_to_json(self.matrix)

    @classmethod
    def from_json(cls, obj: dict) -> "DensityMatrix":
        return cls(matrix_from_json(obj))


def as_density(rho) -> DensityMatrix:
    """Coerce a raw matrix (or pass through a DensityMatrix) with validation."""
    if isinstance(rho, DensityMatrix):
        return rho
    return DensityMatrix(rho)


# ---------------------------------------------------------------------------
# JSON wire format: { "dim": d, "entries": [[re, im], ...] } row-major.

def matrix_to_json(m) -> dict:
    m = as_complex_matrix(m)
    flat = m.ravel()
    return {
        "dim": int(m.shape[0]),
        "entries": [[float(z.real), float(z.imag)] for z in flat],
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError("a matrix must be a JSON object with 'dim' and 'entries'")
    d, entries = obj["dim"], obj["entries"]
    if type(d) is not int:
        raise ValueError(f"matrix 'dim' must be an integer, got {d!r}")
    if not isinstance(entries, list) or len(entries) != d * d:
        raise ValueError(f"expected a list of {d * d} entries")
    try:
        flat = np.array([complex(re, im) for re, im in entries], dtype=np.complex128)
    except (TypeError, ValueError, OverflowError):
        raise ValueError("each matrix entry must be a pair of numbers [re, im]") from None
    return flat.reshape(d, d)


# ---------------------------------------------------------------------------
# Seeded sampling.  Each sample draws from a stream derived from
# (seed, index), so results do not depend on evaluation order.

def derived_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(index)])


def random_hermitian(d: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * (a + a.conj().T) / 2


def random_pure_statevector(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_density(d: int, rng: np.random.Generator) -> DensityMatrix:
    """Full-rank random density matrix (Ginibre construction)."""
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m).real)
