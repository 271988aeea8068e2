"""Factories for Lie algebra and Clifford representations.

A :class:`GeneratorSet` bundles k Hermitian d x d generator matrices, one
read-only complex128 ``(k, d, d)`` array that every consumer reads as it
is, with two normalization constants:

* ``N`` — the trace-form constant, tr(X_a X_b) = N d delta_ab;
* ``Z`` — the Casimir constant, sum_i X_i^2 = Z * identity.

Four families are provided: the defining representation of su(n) with
generalized Gell-Mann generators, spin-s representations of su(2), the
fundamental 7-dimensional representation of g2 built from octonion
derivations, and the d=4 Weyl representation of the Euclidean Clifford
algebra.  Each factory returns the validated set; everything else read
off a representation (the su(n) structure tensors, the Clifford product
basis) is built from that set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property, reduce
from itertools import combinations
from types import MappingProxyType
from typing import Sequence

import numpy as np

from .matcore import (
    as_complex_matrix,
    matrix_to_json,
    max_abs,
    pair_table,
    readonly_copy,
    sym_monomials,
)

SU_N_DEFINING = "su_n_defining"
SU2_SPIN = "su2_spin"
G2_FUNDAMENTAL = "g2_fundamental"
CLIFFORD_WEYL = "clifford_weyl"
CUSTOM = "custom"

ALGEBRA_TAGS = (SU_N_DEFINING, SU2_SPIN, G2_FUNDAMENTAL, CLIFFORD_WEYL, CUSTOM)

GENERATOR_HERM_TOL = 1e-10
GENERATOR_TRACELESS_TOL = 1e-10
CASIMIR_TOL = 1e-9
TRACE_FORM_TOL = 1e-9


class NotScalarError(ValueError):
    """sum_i X_i^2 is not proportional to the identity.

    Raised for reducible generator sets whose irreducible blocks carry
    unequal Casimir constants; no normalization constant can make the
    corresponding Kraus family trace preserving.
    """


def _gram(stack) -> np.ndarray:
    return np.einsum("aij,bji->ab", stack, stack)


def generator_residuals(generators: Sequence, Z: float, N: float) -> dict:
    """Max-norm residuals of the four invariants of a generator stack:
    Hermiticity, tracelessness, sum_i X_i^2 = Z I and tr(X_a X_b) = N d delta_ab."""
    d = generators[0].shape[0]
    return {
        "hermiticity": max(max_abs(x - x.conj().T) for x in generators),
        "traceless": max(abs(np.trace(x)) for x in generators),
        "casimir_deviation": max_abs(sum(x @ x for x in generators) - Z * np.eye(d)),
        "trace_form_deviation": max_abs(_gram(generators) - N * d * np.eye(len(generators))),
    }


@dataclass(frozen=True, eq=False)
class GeneratorSet:
    """k Hermitian d x d matrices, one read-only complex128 ``(k, d, d)``
    array copied once from the given matrices (k and d are read from its
    shape), plus N and Z; ``residuals`` holds their
    :func:`generator_residuals`, measured and enforced on construction, as
    a read-only mapping."""

    algebra: str
    generators: np.ndarray = field(repr=False)
    N: float
    Z: float
    residuals: MappingProxyType = field(init=False, repr=False)

    def __post_init__(self):
        if self.algebra not in ALGEBRA_TAGS:
            raise ValueError(f"unknown algebra tag {self.algebra!r}")
        gens = self.generators
        if not isinstance(gens, np.ndarray) and len({np.shape(m) for m in gens}) > 1:
            raise ValueError("generator dimension mismatch")   # numpy stacks no such list
        gens = readonly_copy(gens)
        object.__setattr__(self, "generators", gens)
        if not len(gens):
            raise ValueError("a generator set needs at least one generator")
        if gens.ndim != 3 or gens.shape[1] != gens.shape[2]:
            raise ValueError("generator dimension mismatch")
        res = MappingProxyType(generator_residuals(gens, self.Z, self.N))
        object.__setattr__(self, "residuals", res)
        if not res["hermiticity"] <= GENERATOR_HERM_TOL:
            raise ValueError("generator is not Hermitian within 1e-10")
        if res["traceless"] > GENERATOR_TRACELESS_TOL:
            raise ValueError("generator is not traceless within 1e-10")
        if res["casimir_deviation"] > CASIMIR_TOL:
            raise NotScalarError("sum of squared generators does not equal Z * identity")
        if res["trace_form_deviation"] > TRACE_FORM_TOL:
            raise ValueError("trace form deviates from N*d*delta beyond 1e-9")

    def __getstate__(self) -> dict:
        """The dataclass fields only, so that copies (``copy.copy``,
        ``copy.deepcopy``) build their own tables on first read: a copy whose
        generators are replaced must not read the original's."""
        state = {f.name: getattr(self, f.name) for f in fields(self)}
        state["residuals"] = dict(self.residuals)   # a mappingproxy cannot be copied deeply
        return state

    def __setstate__(self, state: dict) -> None:
        state["generators"].flags.writeable = False   # a deep copy's is a new array
        self.__dict__.update(state, residuals=MappingProxyType(state["residuals"]))

    @property
    def d(self) -> int:
        return self.generators.shape[1]

    @property
    def k(self) -> int:
        return len(self.generators)

    @cached_property
    def nonzero_terms(self) -> tuple:
        """Where each generator is nonzero, for sums I + sum_i c_i X_i that
        add only the nonzero terms (:func:`liechan.bloch.bloch_rho`).

        A matrix is read as its 2 d^2 float components (real and imaginary
        part of each entry, row-major), sorted by the number of generators
        nonzero there, most first.  Returns ``(order, base, sizes, gens,
        coefs)``: the identity's components in sorted order as ``base``, the
        gather ``order`` back to row-major, and one C-contiguous ``(slots,
        sizes[0])`` rectangle each of generator indices and values over the
        components where some generator is nonzero (at spin-63/2, 316 of
        8192).  Row t holds, for each of the first ``sizes[t]`` components
        (those with more than t nonzero generators), the t-th of them by
        index and its value there; the rest of the row is padded with
        generator 0 and value 0.0.  Built on first read and kept with the
        set.
        """
        flat = self.generators.reshape(self.k, -1).view(np.float64)
        counts = np.count_nonzero(flat, axis=0)
        perm = np.argsort(-counts, kind="stable")
        cols, nonzero = np.nonzero(flat[:, perm].T)    # by component, then generator
        rank = np.arange(len(cols)) - np.searchsorted(cols, cols)
        slots = int(counts.max())
        sizes = tuple(int(m) for m in np.count_nonzero(counts > np.arange(slots)[:, None], axis=1))
        gens = np.zeros((slots, sizes[0] if sizes else 0), dtype=np.intp)
        coefs = np.zeros(gens.shape)
        gens[rank, cols] = nonzero
        coefs[rank, cols] = flat[nonzero, perm[cols]]
        base = np.eye(self.d, dtype=np.complex128).reshape(-1).view(np.float64)[perm]
        order = np.argsort(perm)
        for a in (order, base, gens, coefs):
            a.flags.writeable = False   # shared by every request that holds the set
        return order, base, sizes, gens, coefs

    @cached_property
    def pair_monomials(self) -> tuple:
        """The multisets (a, b), a <= b, and the read-only ``(C(k+1, 2), d, d)``
        stack of the X_(a X_b), folded on ``pair_products``.  Built on first
        read and kept with the set; only spin sets are read for it
        (:func:`liechan.bloch.extract_vw`, :func:`liechan.bloch.spin_vw_purity_search`)."""
        multisets, stack = sym_monomials(self.generators, 2, self.pair_products)
        stack.flags.writeable = False
        return multisets, stack

    @cached_property
    def pair_products(self) -> np.ndarray:
        """The read-only ``(k, k, d, d)`` table of the ordered products X_a X_b
        (:func:`liechan.matcore.pair_table`), which every reader of them
        takes.  Built on first read and kept with the set."""
        return pair_table(self.generators)

    @classmethod
    def from_generators(cls, generators: Sequence, algebra: str = CUSTOM) -> "GeneratorSet":
        """The set with N = tr(X_1^2)/d and Z = sum_i tr(X_i^2)/d, the
        constants the invariants force; the constructor checks them."""
        mats = [as_complex_matrix(g) for g in generators]
        if not mats:
            raise ValueError("a generator set needs at least one generator")
        d = mats[0].shape[0]
        sq = [np.einsum("ij,ji->", m, m).real / d for m in mats]
        return cls(algebra=algebra, generators=mats, N=float(sq[0]), Z=float(sum(sq)))

    def to_json(self) -> dict:
        return {
            "algebra": self.algebra,
            "d": self.d,
            "k": self.k,
            "N": self.N,
            "Z": self.Z,
            "generators": [matrix_to_json(g) for g in self.generators],
        }


# ---------------------------------------------------------------------------
# su(n): generalized Gell-Mann matrices, tr(X_a X_b) = 2 delta_ab.

def gell_mann(n: int) -> GeneratorSet:
    """Canonical su(n) generators: Pauli matrices for n=2, Gell-Mann for n=3.

    Ordering: for each column k = 2..n, the symmetric and antisymmetric
    off-diagonal pairs E_jk +/- E_kj for j < k, then the diagonal matrix
    sqrt(2/((k-1)k)) diag(1, ..., 1, -(k-1), 0, ...).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    gens = []
    for k in range(2, n + 1):
        for j in range(1, k):
            m = np.zeros((n, n), dtype=np.complex128)
            m[j - 1, k - 1] = 1
            m[k - 1, j - 1] = 1
            gens.append(m)
            m = np.zeros((n, n), dtype=np.complex128)
            m[j - 1, k - 1] = -1j
            m[k - 1, j - 1] = 1j
            gens.append(m)
        m = np.zeros((n, n), dtype=np.complex128)
        for i in range(k - 1):
            m[i, i] = 1
        m[k - 1, k - 1] = -(k - 1)
        gens.append(math.sqrt(2.0 / ((k - 1) * k)) * m)
    return GeneratorSet(
        algebra=SU_N_DEFINING,
        generators=gens,
        N=2.0 / n,
        Z=2.0 * (n * n - 1) / n,
    )


@dataclass(frozen=True, eq=False)
class StructureTensors:
    """Product tensors of the su(n) defining representation.

    X_i X_j = beta delta_ij I + sum_k Q_ijk X_k with Q = d_sym + i f;
    f is totally antisymmetric, d_sym totally symmetric and traceless.
    ``residuals``: the :func:`structure_residuals` rows measured by :func:`structure_tensors`.
    """

    n: int
    beta: float
    f: np.ndarray = field(repr=False)
    d_sym: np.ndarray = field(repr=False)
    Q: np.ndarray = field(repr=False)
    residuals: tuple = field(init=False, repr=False, default=())

    def __post_init__(self):
        k = self.n * self.n - 1
        for name in ("f", "d_sym", "Q"):
            arr = getattr(self, name)
            if arr.shape != (k, k, k):
                raise ValueError(f"{name} tensor has wrong shape {arr.shape}")


def structure_tensors(g: GeneratorSet) -> StructureTensors:
    """f, d and Q tensors of su(n) on its defining set ``g`` (:func:`gell_mann`),
    read from T_ijk = tr(X_i X_j X_k): f_ijk = -(i/4)(T_ijk - T_jik) =
    -(i/4) tr([X_i,X_j] X_k), d_ijk = (T_ijk + T_jik)/4 = (1/4) tr({X_i,X_j} X_k),
    Q = d + i f, beta = 2/n.  T is one gemm of the set's pair table X_i X_j
    (``g.pair_products``) with the transposed generators."""
    if g.algebra != SU_N_DEFINING:
        raise ValueError(f"structure_tensors needs the su(n) defining representation, got {g.algebra!r}")
    n, k, x = g.d, g.k, g.generators
    t = (g.pair_products.reshape(k * k, n * n) @ x.transpose(0, 2, 1).reshape(k, n * n).T).reshape(k, k, k)
    f = t - t.transpose(1, 0, 2)
    f *= -0.25j
    d_sym = t + t.transpose(1, 0, 2)
    d_sym *= 0.25
    del t
    if max_abs(f.imag) > 1e-12 or max_abs(d_sym.imag) > 1e-12:
        raise ArithmeticError("structure tensors acquired an imaginary part")
    f = np.ascontiguousarray(f.real)   # the contractions read them as gemm operands
    d_sym = np.ascontiguousarray(d_sym.real)
    q = d_sym + 1j * f
    tensors = StructureTensors(n=n, beta=2.0 / n, f=f, d_sym=d_sym, Q=q)
    object.__setattr__(tensors, "residuals", structure_residuals(g, tensors))
    failed = [name for name, residual, tol in tensors.residuals if residual > tol]
    if failed:
        raise ArithmeticError(f"su({n}) structure identities violated: {', '.join(failed)}")
    return tensors


def structure_residuals(g: GeneratorSet, t: StructureTensors) -> tuple:
    """(name, residual, tolerance) of the su(n) structure identities:
    f_ijm f_ljm = n delta, Q_ijm Q_ljm = -(4/n) delta, sum_i d_iik = 0 and
    X_i X_j = beta delta_ij I + Q_ijk X_k, each contraction one gemm."""
    n, k, x = t.n, g.k, g.generators
    f, q = t.f.reshape(k, k * k), t.Q.reshape(k, k * k)
    recon = (t.Q.reshape(k * k, k) @ x.reshape(k, n * n)).reshape(k, k, n, n)
    recon[np.arange(k), np.arange(k)] += t.beta * np.eye(n)
    return (
        ("f_contraction", max_abs(f @ f.T - n * np.eye(k)), 1e-8),
        ("Q_contraction", max_abs(q @ q.T + (4.0 / n) * np.eye(k)), 1e-8),
        ("d_traceless", max_abs(np.einsum("iik->k", t.d_sym)), 1e-9),
        ("product_identity", max_abs(g.pair_products - recon), 1e-9),
    )


# ---------------------------------------------------------------------------
# su(2) spin-s representations, standard angular momentum conventions.

def spin_rep(two_s: int) -> GeneratorSet:
    """Spin-s generators (s = two_s / 2) in dimension d = 2s + 1.

    J3 = diag(s, s-1, ..., -s); ladder elements sqrt(s(s+1) - m(m+1));
    Z = s(s+1) and tr(J_a J_b) = (d Z / 3) delta_ab.
    """
    if two_s < 1:
        raise ValueError("two_s must be >= 1")
    d = two_s + 1
    s = two_s / 2.0
    lam = s * (s + 1.0)
    mvals = [s - i for i in range(d)]
    jp = np.zeros((d, d), dtype=np.complex128)
    for i in range(1, d):
        m = mvals[i]
        jp[i - 1, i] = math.sqrt(lam - m * (m + 1.0))
    jm = jp.conj().T
    j1 = (jp + jm) / 2.0
    j2 = (jp - jm) / 2.0j
    j3 = np.diag(np.array(mvals, dtype=np.complex128))
    return GeneratorSet(
        algebra=SU2_SPIN,
        generators=(j1, j2, j3),
        N=lam / 3.0,
        Z=lam,
    )


def require_spin(g: GeneratorSet) -> GeneratorSet:
    """g, or ValueError unless it is a spin-s set (:func:`spin_rep`)."""
    if g.algebra != SU2_SPIN:
        raise ValueError(f"expected a spin generator set ({SU2_SPIN}), got {g.algebra!r}")
    return g


# ---------------------------------------------------------------------------
# Octonions and the derivation algebra g2.

# Oriented Fano lines: e_a e_b = e_c cyclically for each triple below,
# e_i^2 = -1, e_0 the unit.  This is the classic Cayley-Graves orientation;
# the derived 14-generator basis below is trace-orthogonal exactly in this
# convention (checked on construction).
OCTONION_TRIPLES = (
    (1, 2, 3),
    (1, 4, 5),
    (1, 7, 6),
    (2, 4, 6),
    (2, 5, 7),
    (3, 4, 7),
    (3, 6, 5),
)


def octonion_table() -> np.ndarray:
    """Multiplication tensor T with e_i e_j = sum_k T[i, j, k] e_k."""
    t = np.zeros((8, 8, 8))
    t[0, 0, 0] = 1.0
    for j in range(1, 8):
        t[0, j, j] = 1.0
        t[j, 0, j] = 1.0
        t[j, j, 0] = -1.0
    for a, b, c in OCTONION_TRIPLES:
        for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
            t[i, j, k] = 1.0
            t[j, i, k] = -1.0
    return t


def octonion_multiply(x, y, table: np.ndarray | None = None) -> np.ndarray:
    """The product xy of octonions given by their 8 components on e_0..e_7."""
    t = octonion_table() if table is None else table
    return np.einsum("i,j,ijk->k", np.asarray(x, dtype=float), np.asarray(y, dtype=float), t)


def _derivation_tensor(t: np.ndarray) -> np.ndarray:
    """Every derivation D(e_p, e_q) of the algebra with multiplication tensor
    t, as D[p, q] = the 8x8 matrix of a -> [[e_p,e_q],a] - 3[e_p,e_q,a].

    With c = t - t^T (so [e_i, e_j] = sum_k c[i, j, k] e_k) the commutator
    term is sum_m c[p,q,m] c[m,a,k] and the associator
    [e_p,e_q,e_a] = (e_p e_q) e_a - e_p (e_q e_a) is
    sum_m t[p,q,m] t[m,a,k] - t[q,a,m] t[p,m,k]; row k, column a.
    """
    c = t - t.transpose(1, 0, 2)
    assoc = np.einsum("pqm,mak->pqka", t, t) - np.einsum("qam,pmk->pqka", t, t)
    return np.einsum("pqm,mak->pqka", c, c) - 3.0 * assoc


def g2_rep() -> GeneratorSet:
    """The 14 Hermitian 7x7 generators of g2 acting on imaginary octonions.

    Built from the scaled derivations d_ij = D(e_i, e_j)/2 via the
    six-plus-eight split adapted to the su(3) subalgebra fixing e_1:

        m_i = d_{1,i+1}                         (i = 1..6)
        h_1 = d_12 + 2 d_47   h_2 = d_13 - 2 d_46   h_3 = d_14 - 2 d_27
        h_4 = d_15 + 2 d_26   h_5 = d_16 - 2 d_25   h_6 = d_17 + 2 d_24
        h_7 = sqrt(3) d_23    h_8 = d_23 + 2 d_45

    beta = (i/sqrt(24)) ({m_1..m_6} + (1/sqrt(3)) {h_1..h_8}) gives
    tr(beta_a beta_b) = delta_ab / 2 and sum_i beta_i^2 = I_7.  The raw
    derivations are real antisymmetric; the factor i makes them Hermitian.
    For every real v, tr((v.beta)^2) = v^2/2 and
    tr((v.beta)^4) = v^4/16 = (tr (v.beta)^2)^2/4.
    """
    table = octonion_table()
    pairs = [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7),
             (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (4, 5), (4, 6), (4, 7)]
    p, q = np.transpose(pairs)
    raw = _derivation_tensor(table)[p, q]
    # Leibniz rule D(e_a e_b) = D(e_a) e_b + e_a D(e_b) for all 14 and all (a, b)
    lhs = np.einsum("nkl,abl->nabk", raw, table)
    rhs = np.einsum("nma,mbk->nabk", raw, table) + np.einsum("nmb,amk->nabk", raw, table)
    if max_abs(lhs - rhs) > 1e-10:
        raise ArithmeticError("derivation property D(ab) = D(a)b + a D(b) failed")
    if max_abs(raw[:, 0, :]) > 1e-12 or max_abs(raw[:, :, 0]) > 1e-12:
        raise ArithmeticError("derivation does not preserve the imaginary subspace")
    d = dict(zip(pairs, 0.5 * raw[:, 1:, 1:]))

    m_basis = [d[(1, i)] for i in range(2, 8)]
    h_basis = [
        d[(1, 2)] + 2 * d[(4, 7)],
        d[(1, 3)] - 2 * d[(4, 6)],
        d[(1, 4)] - 2 * d[(2, 7)],
        d[(1, 5)] + 2 * d[(2, 6)],
        d[(1, 6)] - 2 * d[(2, 5)],
        d[(1, 7)] + 2 * d[(2, 4)],
        math.sqrt(3.0) * d[(2, 3)],
        d[(2, 3)] + 2 * d[(4, 5)],
    ]
    scale_m = 1j / math.sqrt(24.0)
    scale_h = 1j / math.sqrt(72.0)
    betas = np.stack([scale_m * b for b in m_basis] + [scale_h * b for b in h_basis])
    if max_abs(betas - betas.conj().transpose(0, 2, 1)) > 1e-12:
        raise ArithmeticError("scaled derivation failed to be Hermitian")
    return GeneratorSet(
        algebra=G2_FUNDAMENTAL,
        generators=betas,
        N=1.0 / 14.0,
        Z=1.0,
    )


# ---------------------------------------------------------------------------
# Clifford algebra, Euclidean form <x, y> = 2 sum_i x_i y_i, Weyl rep in d=4.

def clifford_bilinear(x, y) -> float:
    """The bilinear form fixed for the gamma matrices: <x,y> = 2 x.y."""
    return 2.0 * float(np.dot(np.asarray(x, dtype=float), np.asarray(y, dtype=float)))


def clifford_weyl() -> GeneratorSet:
    """Four Hermitian 4x4 gamma matrices with {g(x), g(y)} = <x,y> I.

    The block (Weyl) form is used: gamma_j = offdiag(-i sigma_j, i sigma_j)
    for j = 1..3 and gamma_4 = offdiag(I, I), so gamma_mu^2 = I, distinct
    gammas anticommute and every gamma is traceless.
    """
    s = [
        np.array([[0, 1], [1, 0]], dtype=np.complex128),
        np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
        np.array([[1, 0], [0, -1]], dtype=np.complex128),
    ]
    z2 = np.zeros((2, 2), dtype=np.complex128)
    eye2 = np.eye(2, dtype=np.complex128)
    gammas = [np.block([[z2, -1j * sj], [1j * sj, z2]]) for sj in s]
    gammas.append(np.block([[z2, eye2], [eye2, z2]]))
    return GeneratorSet(
        algebra=CLIFFORD_WEYL,
        generators=gammas,
        N=1.0,
        Z=4.0,
    )


def clifford_basis(g: GeneratorSet) -> tuple:
    """The 16-element antisymmetrized product basis of gl(4) on the gammas
    of ``g`` (:func:`clifford_weyl`): I, the gammas, then the products of
    2, 3 and 4 distinct gammas in lexicographic index order.

    Anticommuting factors make every signed reordering of a product of
    distinct gammas equal to the ordered product, so the antisymmetrized
    product of gamma_i1 .. gamma_ir (i1 < .. < ir) is the ordered product
    itself.  Its independence is measured by :func:`basis_rank`.
    """
    if g.algebra != CLIFFORD_WEYL:
        raise ValueError(f"expected a Clifford generator set ({CLIFFORD_WEYL}), got {g.algebra!r}")
    gammas = g.generators
    basis = [np.eye(4, dtype=np.complex128), *gammas]
    for r in (2, 3, 4):
        for idx in combinations(range(4), r):
            basis.append(reduce(np.matmul, [gammas[i] for i in idx]))
    return tuple(basis)


def basis_rank(mats) -> int:
    """Rank of the Gram matrix tr(A^dag B) of a matrix family (tolerance 1e-8),
    one product of the flattened matrices."""
    flat = np.asarray(mats, dtype=np.complex128).reshape(len(mats), -1)
    gram = flat.conj() @ flat.T
    return int(np.linalg.matrix_rank(gram, tol=1e-8))


def clifford_gamma(x, genset: GeneratorSet) -> np.ndarray:
    """gamma(x) = sum_i x_i gamma_i for a coefficient vector x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (genset.k,):
        raise ValueError(f"expected a length-{genset.k} vector")
    return np.einsum("i,iab->ab", x, genset.generators)


# Convenience dispatcher used by the CLI.
def build_algebra(algebra: str, n: int | None = None, two_s: int | None = None) -> GeneratorSet:
    if algebra == "su":
        if n is None:
            raise ValueError("--n is required for the su algebra")
        return gell_mann(n)
    if algebra == "spin":
        if two_s is None:
            raise ValueError("--two-s is required for the spin algebra")
        return spin_rep(two_s)
    if algebra == "g2":
        return g2_rep()
    if algebra == "clifford":
        return clifford_weyl()
    raise ValueError(f"unknown algebra {algebra!r}")
