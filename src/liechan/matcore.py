"""Dense complex matrix kernel.

Everything downstream (generator sets, Kraus channels, Bloch scans) works
with small dense ``numpy`` arrays of dtype complex128.  This module holds
the shared primitives: commutators, symmetrized products, Hermitian
eigensolves, characteristic-polynomial coefficients via power traces read in
pairs from the powers up to half the dimension, the validated
``DensityMatrix`` wrapper, and the JSON wire format for matrices.

All functions are pure and never mutate their arguments; dimensions stay
small (<= ~64), so double precision leaves a wide margin under the
tolerances declared below.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import chain, combinations_with_replacement, permutations
from typing import Iterator, Sequence

import numpy as np

# Tolerances used across the package.
HERMITIAN_TOL = 1e-10     # max-norm deviation from self-adjointness
TRACE_TOL = 1e-10         # |tr(rho) - 1|
PSD_TOL = 1e-10           # min eigenvalue >= -PSD_TOL
EIG_INPUT_TOL = 1e-8      # Hermiticity required of eigensolver inputs
EIG_RECON_TOL = 1e-9      # ||m - Q diag(w) Q^dag||_max after eigensolve


def as_complex_stack(mats) -> np.ndarray:
    """Coerce m >= 1 square d x d matrices, one ``(m, d, d)`` array or a
    sequence of matrices, to an ``(m, d, d)`` complex128 array with finite
    entries (no copy of a complex128 array)."""
    a = np.asarray(mats, dtype=np.complex128)   # ValueError for unequal shapes
    if a.ndim == 0 or not len(a):
        raise ValueError("expected at least one matrix")
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape[1:]}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return a


def as_complex_matrix(m) -> np.ndarray:
    """A square complex128 array with finite entries: :func:`as_complex_stack` of one."""
    return as_complex_stack(np.asarray(m)[None])[0]


def max_abs(m) -> float:
    """Entrywise max-norm."""
    return float(np.abs(m).max()) if np.asarray(m).size else 0.0


def commutator(a, b) -> np.ndarray:
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


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
    ms = as_complex_stack(mats)
    if len(ms) == 1:
        return ms[0].copy()
    return _collect(_sym_fold(ms, [tuple(range(len(ms)))]), 1)[0]


def sym_monomials(mats: Sequence, r: int, products: np.ndarray | None = None) -> tuple[tuple, np.ndarray]:
    """Every symmetrized rank-r monomial of ``mats``, built batched.

    Returns the multisets in ``combinations_with_replacement`` order and a
    ``(C(k+r-1, r), d, d)`` array whose slice ``j`` is bitwise equal to
    ``sym_product([mats[i] for i in multisets[j]])``, since both run the
    same fold, on the :func:`pair_table` ``products`` of ``mats`` (formed when
    not given; see :func:`_sym_fold`).  For r = 1 it is the stack of ``mats``.
    """
    multisets, slabs = sym_monomial_slabs(mats, r, products)
    return multisets, (next(slabs)[1] if r == 1 else _collect(slabs, len(multisets)))


def sym_monomial_slabs(mats: Sequence, r: int, products: np.ndarray | None = None) -> tuple[tuple, Iterator]:
    """The multisets of :func:`sym_monomials` and an iterator over its
    monomials in slabs ``(rows, stack)``: ``stack[i]`` is monomial
    ``rows[i]``, bitwise the array's, and every row comes once.  A slab is a
    buffer of the fold, valid until the next is drawn.  At r = 1 the one
    slab is ``as_complex_stack(mats)``."""
    if r < 1:
        raise ValueError("rank r must be >= 1")
    stack = as_complex_stack(mats)
    multisets = tuple(combinations_with_replacement(range(len(stack)), r))
    slabs = iter([(np.arange(len(stack)), stack)]) if r == 1 else _sym_fold(stack, multisets, products)
    return multisets, slabs


def pair_table(stack: np.ndarray) -> np.ndarray:
    """The read-only ``(k, k, d, d)`` table of the products X_a X_b of a ``(k, d, d)`` stack."""
    table = stack[:, None] @ stack
    table.flags.writeable = False
    return table


def _collect(slabs: Iterator, n: int) -> np.ndarray:
    """The (n, d, d) stack whose rows the slabs of :func:`_sym_fold` fill."""
    total = None
    for rows, slab in slabs:
        if total is None:
            total = np.empty((n,) + slab.shape[1:], dtype=np.complex128)
        total[rows] = slab
    return total


# Bytes of ordered products in one slab of the fold.  A slab of rank-3
# triples also holds no more products than the fold has multisets, unless
# one largest factor's triples (at most 3k^2 - 3k + 1) are more.
FOLD_SLAB_BYTES = 1 << 18
# Rows of one gemm of the fold: OpenBLAS keeps the packing-buffer pages a
# gemm touched, and the cap keeps ``critical --algebra su --n 8``'s peak RSS
# 5.6 MB lower than whole-slab gemms.
GEMM_ROWS = 1 << 13


def _sym_fold(stack: np.ndarray, multisets, products: np.ndarray | None = None) -> Iterator:
    """Symmetrized products of the stacked matrices over each index multiset
    of one rank r >= 2, yielded in slabs ``(rows, products)`` (positions in
    ``multisets``; each slab a buffer reused for the next): the factors in
    content-key order, so the result is bitwise reproducible under any
    reordering, the permutations summed in ``permutations()`` order as left
    folds onto zeros, and the sum divided by r! last.

    Each term is read from ordered products: the pairs X_a X_b from the
    stack's :func:`pair_table` ``products`` (formed here when not given); from
    rank 3 on the triples X_a X_b X_c, gemms of at most GEMM_ROWS rows (a row
    is bitwise the lone product) on the pairs in max-factor order, which each
    gemm gathers into the slab's scratch, then stacked matmuls for later
    factors.  A slab holds at most FOLD_SLAB_BYTES of products.  Rank-3
    triples come in slabs of the largest factor, which all terms of a
    multiset share: the slab's triples number at most the budget and the
    multisets' count, or one factor's.  ``sym_monomials(su(n), 3)`` peaks
    at 2.10 and 1.63 output stacks for n = 6 and 8, its output included.
    """
    k, d, _ = stack.shape
    n, r = len(multisets), len(multisets[0])
    products = (pair_table(stack) if products is None else products).reshape(k * k, d, d)
    cap = max(FOLD_SLAB_BYTES // (16 * d * d), 1)   # products per slab
    # the matrices in content-key order (ties only between equal matrices);
    # factors[:, j] is multiset order[j] as ascending key ranks, grouped by the largest
    by_key = np.array(sorted(range(k), key=[m.tobytes() for m in stack].__getitem__), dtype=np.intp)
    rank = np.empty(k, dtype=np.intp)
    rank[by_key] = np.arange(k)
    keyed = stack[by_key]
    indices = np.fromiter(chain.from_iterable(multisets), dtype=np.intp, count=n * r).reshape(n, r)
    factors = np.sort(rank[indices], axis=1)
    order = np.argsort(factors[:, -1], kind="stable")
    factors = factors[order].T
    bounds = [0]   # slabs [c0, c1) of the largest factor; one slab unless r = 3
    for c in range(1, k + 1):
        if c == k or (r == 3 and (c + 1) ** 3 - bounds[-1] ** 3 > min(n, cap)):
            bounds.append(c)
    ends = np.searchsorted(factors[-1], bounds).tolist()
    slabs = list(zip(bounds, bounds[1:], ends, ends[1:]))
    if r == 2:   # the pair table serves any rows: slabs of at most cap of them
        slabs = [(0, k, lo, min(lo + cap, n)) for lo in range(0, n, cap)]
    pair = (by_key * k + by_key[:, None]).ravel()   # X_a X_b of key ranks at row pair[b k + a]
    # each slab's sums and terms; before its terms are taken, each gemm's pairs
    scratch = np.empty((2 * max(hi - lo for _, _, lo, hi in slabs), d, d), dtype=np.complex128)
    sums, terms = scratch.reshape(2, -1, d, d)
    table = products   # the terms' table: from rank 3 on, each slab's triples
    if r > 2:
        by_max = np.argsort(np.maximum(*np.divmod(np.arange(k * k), k)), kind="stable")
        table = np.empty((max(c1 ** 3 - c0 ** 3 for c0, c1, _, _ in slabs), d, d), dtype=np.complex128)
        at = np.empty((k * k, k), dtype=np.intp)   # at[b k + a, c]: X_a X_b X_c's row in the slab
    step = max(min(GEMM_ROWS // d, len(scratch)), 1)   # pairs per gemm
    for c0, c1, lo, hi in slabs:
        if lo == hi:
            continue
        rows = factors[:, lo:hi]
        if r > 2:   # pairs[:c0^2] @ X_c for c in [c0, c1), then pairs[c0^2:c1^2] @ X_c for c < c1
            filled = 0
            for start, stop, cs in ((0, c0 * c0, slice(c0, c1)), (c0 * c0, c1 * c1, slice(0, c1))):
                count = cs.stop - cs.start
                for p in range(start, stop, step):
                    size = min(step, stop - p)
                    block = table[filled:filled + count * size]
                    pairs = products.take(pair[by_max[p:p + size]], 0, scratch[:size], "clip")
                    np.matmul(pairs.reshape(size * d, d), keyed[cs], out=block.reshape(count, size * d, d))
                    at[by_max[p:p + size], cs] = np.arange(filled, filled + len(block)).reshape(count, size).T
                    filled += len(block)
        part, term = sums[:hi - lo], terms[:hi - lo]
        part.fill(0.0)
        for perm in permutations(range(r)):
            row = rows[perm[1]] * k + rows[perm[0]]
            row = at[row, rows[perm[2]]] if r > 2 else pair[row]   # the term's row in the table
            x = table.take(row, 0, term, "clip")   # 'raise' would buffer a copy; none clips
            for i in perm[3:]:
                x = x @ keyed[rows[i]]
            part += x
        part /= math.factorial(r)
        yield order[lo:hi], part


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

    The traces come in pairs from the powers P_e = m^e up to e = ceil(d/2):
    c_(2e-1) = sum_ij (P_e)_ij (P_(e-1))_ji and c_2e = sum_ij (P_e)_ij
    (P_e)_ji, with P_0 = I, so c_1 is the diagonal sum.  That is ceil(d/2) - 1
    matrix products.  A stack forms them stacked, and besides ``m`` at most
    two powers are alive; one matrix keeps its powers and reads every pair
    in one einsum over the stacked pairs, the contraction the stack reads
    pair by pair, on Python floats.  The rounding bound on the c_q is
    derived beside ``bloch.psd_by_charpoly``, which reads the signs.

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
    d = m.shape[-1]
    if m.ndim == 2:
        powers = np.empty(((d + 1) // 2, d, d), dtype=np.complex128)   # P_1, ..., P_ceil(d/2)
        powers[0] = m
        for e in range(1, len(powers)):
            np.matmul(powers[e - 1], m, out=powers[e])
        left, right = _power_pairs(d)
        c = [float(m.trace().real)]
        c += np.einsum("...ij,...ji->...", powers.take(left, 0), powers.take(right, 0)).real.tolist()
        return np.array(newton_recursion(c), dtype=float)
    c = np.empty((d,) + m.shape[:-2])           # c[q - 1] = c_q
    c[0] = m.trace(axis1=-2, axis2=-1).real     # against P_0 = I
    prev = power = m                            # P_(e-1) and P_e, from e = 1
    for e in range(1, (d + 1) // 2 + 1):
        if e > 1:
            prev = power   # drops P_(e-2) before P_e is formed
            power = prev @ m
            c[2 * e - 2] = np.einsum("...ij,...ji->...", power, prev).real
        if 2 * e <= d:
            c[2 * e - 1] = np.einsum("...ij,...ji->...", power, power).real
    del prev, power   # the recursion's temporaries need not sit beside two powers
    a = np.empty((d + 1,) + m.shape[:-2])
    a[0] = 1.0
    a[1:] = newton_recursion(c)[1:]
    return a


@functools.cache
def _power_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows e - 1 of the powers P_e that :func:`char_poly_coeffs` pairs for
    c_q, q = 2..d: P_ceil(q/2) and P_floor(q/2)."""
    q = np.arange(2, d + 1)
    rows = (q - 1) // 2, q // 2 - 1
    for r in rows:
        r.flags.writeable = False   # shared by every call at this d
    return rows


def newton_recursion(c: Sequence) -> list:
    """a_0 = 1 (an int), a_1, ..., a_n from the power sums c_1..c_n, given as
    ``c[q - 1]``, by Newton's identities a_k = (1/k) sum_{q=1..k} (-1)^(q-1)
    c_q a_{k-q}.  The c_q may be numbers (``Fraction`` ones give exact
    results) or float arrays (one recursion per entry)."""
    signed = [cq if q % 2 == 0 else -cq for q, cq in enumerate(c)]   # (-1)^(q-1) c_q
    a = [1]
    for k in range(1, len(c) + 1):
        total = 0   # a left fold: from Python 3.12, sum() compensates float sums
        for q in range(1, k + 1):
            total = total + signed[q - 1] * a[k - q]
        a.append(total / k)
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
        # entries near the float limit overflow to an inf deviation, which fails
        # the check below without numpy's overflow warning
        with np.errstate(over="ignore"):
            herm = max_abs(m - m.conj().T)
            tr_err = abs(np.trace(m) - 1.0)
        if herm > HERMITIAN_TOL:
            raise ValueError(f"not Hermitian: deviation {herm:.3e} > {HERMITIAN_TOL}")
        if tr_err > TRACE_TOL:
            raise ValueError(f"trace deviates from 1 by {tr_err:.3e} > {TRACE_TOL}")
        lo = float(np.linalg.eigvalsh(m)[0])
        if lo < -PSD_TOL:
            raise ValueError(f"not positive semidefinite: min eigenvalue {lo:.3e}")
        object.__setattr__(self, "matrix", readonly_copy(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def to_json(self) -> dict:
        return matrix_to_json(self.matrix)


def as_density(rho) -> DensityMatrix:
    """Coerce a raw matrix (or pass through a DensityMatrix) with validation."""
    if isinstance(rho, DensityMatrix):
        return rho
    return DensityMatrix(rho)


# ---------------------------------------------------------------------------
# JSON wire format: { "dim": d, "entries": [[re, im], ...] } row-major.

def matrix_to_json(m) -> dict:
    m = np.ascontiguousarray(as_complex_matrix(m))
    return {
        "dim": int(m.shape[0]),
        "entries": m.reshape(-1).view(np.float64).reshape(-1, 2).tolist(),
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
        if any(type(re) is bool or type(im) is bool for re, im in entries):
            raise TypeError
    except (TypeError, ValueError, OverflowError):
        raise ValueError("each matrix entry must be a pair of numbers [re, im]") from None
    return flat.reshape(d, d)


# ---------------------------------------------------------------------------
# Seeded sampling.  Each sample draws from a stream derived from
# (seed, index), so results do not depend on evaluation order.

def derived_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(index)])


def random_pure_statevector(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_density(d: int, rng: np.random.Generator) -> DensityMatrix:
    """Full-rank random density matrix (Ginibre construction)."""
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m).real)
