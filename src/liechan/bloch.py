"""Generalized Bloch parameterizations and manifold membership.

A coefficient vector v parameterizes rho(v) = (I + sum_i v_i X_i)/d; the
Bloch manifold is the set of v for which rho(v) is positive semidefinite.
Membership is decided two independent ways (eigenvalues, and signs of the
characteristic-polynomial coefficients), with closed forms for su(3) and
radius bounds for every generator set.  The module also covers the
second-order (v, w) parameterization used by the spin channels, its
inversion, density-matrix decomposition into symmetrized generator
monomials, and the pure-state characterizations, among them the least weight
a pure spin state puts outside the (v, w) span, measured against the span of
the monomials {I, J_a, J_(a J_b)} themselves.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .channel import spin_vw_input, traceless_basis
from .matcore import (
    as_complex_matrix,
    char_poly_coeffs,
    max_abs,
    newton_recursion,
    sym_monomials,
    symmetric_tensor,
)
from .repgen import (
    SU2_SPIN,
    SU_N_DEFINING,
    GeneratorSet,
    StructureTensors,
    gell_mann,
    require_spin,
    structure_tensors,
)

MEMBERSHIP_TOL = 1e-10
SPAN_TOL = 1e-8


class SpanDeficientError(ValueError):
    """The requested monomial basis does not span the target matrix;
    raise max_rank."""


def _coefficients(v, k: int) -> np.ndarray:
    """v as float, either one length-k vector or an (n, k) stack of them,
    with finite entries."""
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] != k:
        raise ValueError(f"expected a length-{k} coefficient vector or an (n, {k}) stack of them")
    if not np.isfinite(v).all():
        raise ValueError("Bloch coefficients must be finite (no NaN/Inf)")
    return v


def _squares(x) -> float | np.ndarray:
    """sum_i x_i^2 along the last axis, formed per row as np.dot forms it: a
    Python float for one row, by np.dot itself."""
    if x.ndim == 1:
        return float(np.dot(x, x))
    return (x[..., None, :] @ x[..., :, None])[..., 0, 0]


def bloch_rho(g: GeneratorSet, v) -> np.ndarray:
    """rho(v) = (I + sum_i v_i X_i)/d, or the (n, d, d) stack of them for an
    (n, k) stack of v.  Hermitian with unit trace for any real v; positive
    semidefiniteness is exactly membership of v in the Bloch manifold and is
    not checked here.

    Each real and imaginary component of I + sum_i v_i X_i adds, in
    generator order, only the terms of the generators nonzero there
    (``g.nonzero_terms``).  That is bitwise the sum over every i: a
    skipped term is +-0 for finite v, and the sum, which starts at I's
    components, never holds -0, so adding +-0 leaves it unchanged.  A stack
    adds slot t to the first ``sizes[t]`` components of each row; one vector
    gathers the whole padded table at once, under the identity's row, and
    sums it down the slot axis, a row-by-row left fold whose padded terms
    are +-0 too; the components no generator is nonzero on keep I's."""
    v = _coefficients(v, g.k)
    order, base, sizes, gens, coefs = g.nonzero_terms
    if v.ndim == 1:
        width = gens.shape[1]
        terms = np.empty((len(sizes) + 1, width))
        terms[0] = base[:width]
        np.multiply(v.take(gens), coefs, out=terms[1:])
        acc = base.copy()
        np.add.reduce(terms, axis=0, out=acc[:width])
    else:
        acc = np.tile(base, (len(v), 1))
        for m, gens_t, coefs_t in zip(sizes, gens, coefs):
            acc[:, :m] += v[:, gens_t[:m]] * coefs_t[:m]
    return acc.take(order, axis=-1).view(np.complex128).reshape(v.shape[:-1] + (g.d, g.d)) / g.d


def bloch_vector(g: GeneratorSet, rho) -> np.ndarray:
    """Invert rho = (I + v.X)/d on the generator span: v_a = tr(rho X_a)/N."""
    m = as_complex_matrix(rho)
    return np.array([np.trace(m @ x).real / g.N for x in g.generators])


def psd_by_eigenvalues(ev) -> bool | np.ndarray:
    """The eig oracle's rule on the ascending eigenvalues of rho(v), shape
    (d,) or (n, d): the least one is >= -1e-10; a Python bool for one
    input."""
    ev = np.asarray(ev)
    if ev.ndim == 1:
        return float(ev[0]) >= -MEMBERSHIP_TOL
    return ev[:, 0] >= -MEMBERSHIP_TOL


def membership_eig(g: GeneratorSet, v) -> bool | np.ndarray:
    """v is a valid Bloch vector iff min eig of rho(v) >= -1e-10; one bool
    per row for an (n, k) stack."""
    return psd_by_eigenvalues(np.linalg.eigvalsh(bloch_rho(g, v)))


# The charpoly oracle reads the coefficients b_k = e_k(mu) of N = rho/||rho||_F.
# Its eigenvalues mu have sum mu^2 = 1, so |mu| <= 1, and the powers
# P_e = N^e that char_poly_coeffs forms have ||P_e||_F <= ||N||_2^(e-1)
# ||N||_F <= 1: every entry is at most 1.  With u = eps/2 the unit roundoff
# and B = max_k |b_k| (>= b_0 = 1), the recursion's errors are, to first
# order and counting each complex operation as one rounding:
# * data: forming P_e = P_(e-1) N adds an error of Frobenius norm at most
#   d u ||P_(e-1)||_F ||N||_F <= d u, and the product with N (||N||_2 <= 1)
#   does not grow the earlier ones, so ||dP_e||_F <= (e - 1) d u and every
#   entry of P_e is off by at most (e - 1) d u.  The power trace
#   p_q = sum_ij (P_a)_ij (P_b)_ji, a + b = q, then errs by at most
#   ||dP_a||_F + ||dP_b||_F <= (q - 2) d u, plus d^2 u ||P_a||_F ||P_b||_F
#   <= d^2 u for its d^2-term sum (p_1, a d-term diagonal sum, by
#   d sqrt(d) u), so |dp_q| <= (q - 1) d^2 u <= q d^2 u.  Since
#   sum_k b_k t^k = exp(sum_q (-1)^(q-1) p_q t^q/q), db_k/dp_q =
#   (-1)^(q-1) b_(k-q)/q exactly, and b_k moves by at most
#   sum_(q<=k) d^2 u |b_(k-q)| <= d^3 u B;
# * rounding: step k sums k products of size at most B (sqrt(d) for q = 1)
#   and divides by k, O(d u B), below the data term for d >= 2.
# So b_k >= -2 d^3 u B = -d^3 eps B accepts every PSD rho, to first order
# with a factor two to spare (on low-rank states up to d = 8 the b_k stay
# within 1.2e-15 B of the ones from the eigenvalues).  Scaling by ||rho||_F,
# not d, keeps the p_q bounded: the eigenvalues of d*rho reach d on pure
# states, where the terms of the recursion grow like d^d.
CHARPOLY_EPS = float(np.finfo(float).eps)


def psd_by_charpoly(rho) -> bool | np.ndarray:
    """The charpoly oracle's rule on rho(v), shape (d, d) or (n, d, d):
    Descartes' rule of signs, all characteristic-polynomial coefficients
    nonnegative, read on rho/||rho||_F to within the recursion's rounding,
    d^3 eps max_k |b_k|.  One matrix is decided on Python floats, a Python
    bool."""
    rho = np.asarray(rho)
    d = rho.shape[-1]
    # ||rho||_F as np.linalg.norm forms it for one matrix
    flat = rho.reshape(rho.shape[:-2] + (d * d,))
    if rho.ndim == 2:
        b = char_poly_coeffs(rho / math.sqrt(_squares(flat.real) + _squares(flat.imag))).tolist()
        return min(b) >= -d ** 3 * CHARPOLY_EPS * max(map(abs, b))
    norm = np.sqrt(_squares(flat.real) + _squares(flat.imag))
    b = char_poly_coeffs(rho / norm[..., None, None])
    return b.min(axis=0) >= -d ** 3 * CHARPOLY_EPS * np.abs(b).max(axis=0)


def membership_charpoly(g: GeneratorSet, v) -> bool | np.ndarray:
    """Same membership decided by the characteristic-polynomial signs of
    rho(v) (:func:`psd_by_charpoly`); one bool per row for an (n, k) stack."""
    return psd_by_charpoly(bloch_rho(g, v))


def norm_bound(g: GeneratorSet) -> float:
    """(d-1)/N: the squared-radius bound implied by tr(rho^2) <= 1."""
    return (g.d - 1) / g.N


def su3_membership_closed(v, tensors: StructureTensors | None = None) -> bool | np.ndarray:
    """Exact su(3) Bloch manifold: v^2 <= min(3, 1 + det(v.lambda)), with
    det(v.lambda) = (2/3) d_ijk v_i v_j v_k; one bool per row for an (n, 8)
    stack.  One vector is decided on Python floats, its products formed as
    np.dot forms them, which is how matmul forms each row's."""
    v = _coefficients(v, 8)
    t = tensors if tensors is not None else _su3_tensors()
    # d_ijk v_i as one (n, 8) @ (8, 64) product, then the j and k contractions
    dv = (v @ t.d_sym.reshape(8, 64)).reshape(v.shape[:-1] + (8, 8))
    if v.ndim == 1:
        det = (2.0 / 3.0) * float(np.dot(v, dv @ v))
    else:
        det = (2.0 / 3.0) * (v[:, None, :] @ (dv @ v[:, :, None]))[:, 0, 0]
    vv = _squares(v)
    # vv <= min(3, 1 + det) + tol, as two comparisons (adding tol is monotone)
    return (vv <= 3.0 + MEMBERSHIP_TOL) & (vv <= 1.0 + det + MEMBERSHIP_TOL)


@functools.cache
def _su3_tensors() -> StructureTensors:
    return structure_tensors(gell_mann(3))


# ---------------------------------------------------------------------------
# Second-order (v, w) parameterization for spin representations.

# The spin sets' (v, w) form has k = 3 generators, so its rank-2 multisets
# are the six (a, b), a <= b, of combinations_with_replacement(range(3), 2).
_VW_PAIRS = tuple(itertools.combinations_with_replacement(range(3), 2))
_VW_DIAGONAL = np.array([a == b for a, b in _VW_PAIRS])
# w_ab = vals[_VW_INDEX[a, b]], the entry symmetric_tensor(_VW_PAIRS, vals, 3) fills
_VW_INDEX = symmetric_tensor(_VW_PAIRS, np.arange(len(_VW_PAIRS)), 3).astype(np.intp)
# sum_ab w_ab J_a J_b counts each off-diagonal pair twice
_VW_WEIGHTS = 2.0 - _VW_DIAGONAL


def rho_vw(g: GeneratorSet, v, w) -> np.ndarray:
    """rho = v.J + sum_ab w_ab J_(a J_b) for the spin-s set g, contracted
    with the set's table of the products J_a J_b (``g.pair_products``).

    The trace comes entirely from the w term; unit trace requires
    tr(w) = 3/(d lam) with lam = s(s+1), which is enforced here.
    Positivity is not guaranteed.  An (n, 3) stack of v with an (n, 3, 3)
    stack of w gives the (n, d, d) stack of the rho, each row bitwise the
    one-input result.
    """
    v, w = spin_vw_input(g, v, w)
    return _contract(g, v, w)


def _contract(g: GeneratorSet, v, w=None, u=None) -> np.ndarray:
    """sum_a v_a X_a + sum_ab w_ab X_a X_b + sum_abc u_abc X_a X_b X_c over
    the generators X of g, the X_a X_b read from its table
    ``g.pair_products``; w enters through its symmetric part, and an absent
    higher-rank tensor is skipped.  (n, k) and (n, k, k) stacks of v and w
    (no u) give the (n, d, d) stack, each row's terms added in the one-input
    order."""
    gens, prods = g.generators, g.pair_products
    acc = np.zeros(v.shape[:-1] + gens.shape[1:], dtype=np.complex128)
    for va, x in zip(np.moveaxis(v, -1, 0), gens):
        acc += va[..., None, None] * x
    if w is None:
        return acc
    acc += np.einsum("...ab,abik->...ik", (w + np.swapaxes(w, -1, -2)) / 2.0, prods)
    if u is not None:
        acc += np.einsum("abc,abcil->il", u, np.einsum("abij,cjl->abcil", prods, gens))
    return acc


def extract_vw(rho, g: GeneratorSet) -> tuple[np.ndarray, np.ndarray]:
    """Invert rho = v.J + sum w_ab J_(a J_b) for a unit-trace rho:

        v_a  = (3/(d lam)) tr(rho J_a)
        w_jk = (30/(lam d (d^2-4))) tr(rho J_(j J_k))
               - ((2 lam + 1)/(d^2-4)) tr(w) delta_jk

    with tr(w) = 3/(d lam).  Only meaningful for d >= 3 (for d = 2 the
    symmetrized pair products collapse onto the identity).  A residual above
    1e-8 of the reconstruction from the J_(j J_k) raises SpanDeficientError,
    signaling a rho outside the (v, w) span.  The J_(j J_k) are the set's
    table ``g.pair_monomials``.
    """
    if require_spin(g).d < 3:
        raise ValueError("extract_vw requires two_s >= 2 (dimension >= 3)")
    m = as_complex_matrix(rho)
    if m.shape != (g.d, g.d):
        raise ValueError("dimension mismatch")
    d = g.d
    lam = g.Z
    v = (3.0 / (d * lam)) * np.trace(m @ g.generators, axis1=1, axis2=2).real
    trw = 3.0 / (d * lam) * np.trace(m).real
    products = g.pair_monomials[1]
    vals = (30.0 / (lam * d * (d * d - 4.0))) * np.trace(m @ products, axis1=1, axis2=2).real
    vals[_VW_DIAGONAL] -= (2.0 * lam + 1.0) / (d * d - 4.0) * trw
    w = vals[_VW_INDEX]
    recon = np.einsum("a,aij->ij", v, g.generators)
    resid = max_abs(m - recon - np.einsum("p,pij->ij", _VW_WEIGHTS * vals, products))
    if resid > SPAN_TOL:
        raise SpanDeficientError(
            f"rho lies outside the span of {{J_a, J_(a J_b)}} (residual {resid:.3e})"
        )
    return v, w


# ---------------------------------------------------------------------------
# Decomposition of a density matrix into symmetrized generator monomials.

@dataclass(frozen=True, eq=False)
class BlochState:
    """Coefficient tensors of rho = I/d + v.X + w.XX + u.XXX (+ residual).

    The tensors are fully symmetric; w and u are None when the requested
    rank was lower.  ``residual`` is the max-norm error of the fit;
    ``trace_parts`` records tr(T_r)/d for the rank-r term, separating each
    term into its traceless piece plus a multiple of the identity.
    """

    algebra: str
    d: int
    k: int
    v: np.ndarray = field(repr=False)
    w: np.ndarray | None = field(repr=False)
    u: np.ndarray | None = field(repr=False)
    residual: float
    trace_parts: dict


def decompose_density(rho, g: GeneratorSet, max_rank: int = 2) -> BlochState:
    """Least-squares coefficients of rho - I/d in the symmetrized monomial
    basis of ranks 1..max_rank (minimum-norm solution when the monomials
    are dependent).  Raises SpanDeficientError if the fit residual exceeds
    1e-8."""
    if not 1 <= max_rank <= 3:
        raise ValueError("max_rank must be 1, 2 or 3")
    m = as_complex_matrix(rho)
    if m.shape != (g.d, g.d):
        raise ValueError("dimension mismatch")
    target = m - (np.trace(m) / g.d) * np.eye(g.d)
    monomials = {r: sym_monomials(g.generators, r, g.pair_products) for r in range(1, max_rank + 1)}
    # columns are the flattened monomials, rank by rank
    a = np.concatenate([stack.reshape(len(stack), -1) for _, stack in monomials.values()]).T.copy()
    design = np.vstack([a.real, a.imag])
    rhs = np.concatenate([target.ravel().real, target.ravel().imag])
    coeffs, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    recon = (a @ coeffs).reshape(g.d, g.d)
    residual = max_abs(target - recon)
    if residual > SPAN_TOL:
        raise SpanDeficientError(
            f"rank <= {max_rank} monomials do not span the target "
            f"(residual {residual:.3e}); raise max_rank"
        )
    tensors, trace_parts = {}, {}
    start = 0
    for r, (multisets, stack) in monomials.items():
        c = coeffs[start:start + len(multisets)]
        start += len(multisets)
        # a multiset's coefficient is shared by its distinct index orderings
        orbits = [math.factorial(r) // math.prod(math.factorial(ms.count(i)) for i in set(ms))
                  for ms in multisets]
        tensors[r] = symmetric_tensor(multisets, c / np.array(orbits), g.k)
        trace_parts[r] = float(c @ np.trace(stack, axis1=1, axis2=2).real / g.d)
    return BlochState(
        algebra=g.algebra,
        d=g.d,
        k=g.k,
        v=tensors[1],
        w=tensors.get(2),
        u=tensors.get(3),
        residual=float(residual),
        trace_parts=trace_parts,
    )


def reconstruct(state: BlochState, g: GeneratorSet) -> np.ndarray:
    """I/d plus the tensor contractions of the BlochState coefficients."""
    return np.eye(g.d) / g.d + _contract(g, state.v, state.w, state.u)


# ---------------------------------------------------------------------------
# Pure states.

def pure_bloch_test(g: GeneratorSet, v, tensors: StructureTensors | None = None) -> bool:
    """Purity test for a Bloch state of the su(n) defining representation:

        rho(v)^2 = rho(v)   iff   1 + beta v^2 = d  and
                                  sum_ab v_a v_b Q_abc = (d - 2) v_c.

    Both conditions come from squaring rho(v) = (I + v.X)/d with the product
    structure X_a X_b = beta delta I + Q.X, which only the defining su(n)
    representation has here; at d = 2 the second condition is vacuous and
    the first reduces to v^2 = 1, the Bloch sphere boundary.
    """
    if g.algebra != SU_N_DEFINING:
        raise ValueError("pure_bloch_test needs the su(n) defining representation")
    v = np.asarray(v, dtype=float)
    if v.shape != (g.k,):
        raise ValueError(f"expected a length-{g.k} vector")
    t = tensors if tensors is not None else structure_tensors(g)
    cond1 = abs(1.0 + t.beta * float(v @ v) - g.d) <= 1e-9 * g.d
    contraction = np.einsum("a,b,abc->c", v, v, t.Q)
    if max_abs(contraction.imag) > 1e-9:
        return False
    cond2 = max_abs(contraction.real - (g.d - 2.0) * v) <= 1e-9 * max(1.0, max_abs(v))
    return bool(cond1 and cond2)


def spin1_s_basis() -> tuple:
    """The antisymmetric spin-1 generators (S_a)_bc = -i eps_abc."""
    s = [np.zeros((3, 3), dtype=np.complex128) for _ in range(3)]
    for (a, b, c) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        s[a][b, c] = -1j
        s[a][c, b] = 1j
    return tuple(s)


def s_to_j_unitary() -> np.ndarray:
    """U with S_a = U J_a U^dag relating the antisymmetric basis to the
    standard ladder-basis spin-1 generators."""
    r = 1.0 / math.sqrt(2.0)
    return np.array(
        [[-r, 0, r], [-1j * r, 0, -1j * r], [0, 1, 0]], dtype=np.complex128
    )


def spin1_pure_family(w22: float, w33: float, signs=(1, 1, 1)) -> np.ndarray:
    """Pure second-order spin-1 states in the antisymmetric basis.

    For (w22, w33) inside the triangle w22 < 1/2, w33 < 1/2,
    w22 + w33 > 0, the projector P_ij = s_i s_j a_i a_j with

        a = (sqrt(w22 + w33), sqrt(1/2 - w22), sqrt(1/2 - w33))

    satisfies P^2 = P and tr P = 1.  ``signs`` flips components of a,
    which flips two off-diagonal pairs of P (or none).
    """
    if not (w22 < 0.5 and w33 < 0.5 and w22 + w33 > 0.0):
        raise ValueError("(w22, w33) must satisfy w22 < 1/2, w33 < 1/2, w22 + w33 > 0")
    signs = np.asarray(signs, dtype=float)
    if signs.shape != (3,) or not np.all(np.abs(signs) == 1.0):
        raise ValueError("signs must be three values of +-1")
    a = signs * np.array(
        [math.sqrt(w22 + w33), math.sqrt(0.5 - w22), math.sqrt(0.5 - w33)]
    )
    return np.outer(a, a).astype(np.complex128)


def spin1_pure_omega(omega: float) -> np.ndarray:
    """The one-parameter family of pure second-order spin-1 states

        P(w) = [[1/2 + w, 0, sqrt(1 - 4w^2)/2],
                [0, 0, 0],
                [sqrt(1 - 4w^2)/2, 0, 1/2 - w]]

    for omega in (-1/2, 1/2)."""
    if not -0.5 < omega < 0.5:
        raise ValueError("omega must lie in (-1/2, 1/2)")
    off = 0.5 * math.sqrt(1.0 - 4.0 * omega * omega)
    return np.array(
        [[0.5 + omega, 0, off], [0, 0, 0], [off, 0, 0.5 - omega]],
        dtype=np.complex128,
    )


def pure_from_psi(psi) -> tuple[np.ndarray, np.ndarray]:
    """(v, w) of the pure state |psi><psi| in the antisymmetric basis:

        w_ab = delta_ab / 2 - Re(psi_a conj(psi_b)),   v = psi_R x psi_I.

    ||v|| <= 1/2 always; reconstructing v.S + w.SS returns |psi><psi|.
    """
    psi = np.asarray(psi, dtype=np.complex128).ravel()
    if psi.shape != (3,):
        raise ValueError("expected a 3-component state vector")
    if not np.isfinite(psi).all():
        raise ValueError("psi entries must be finite (no NaN/Inf)")
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError("psi must be normalized")
    # rescaled, so that tr(w) = 1/2 holds to rounding, as rho_vw_s_basis checks
    psi = psi / norm
    w = 0.5 * np.eye(3) - np.real(np.outer(psi, psi.conj()))
    v = np.cross(psi.real, psi.imag)
    return v, w


def rho_vw_s_basis(v, w) -> np.ndarray:
    """rho = v.S + sum w_ab S_(a S_b) in the antisymmetric spin-1 basis:
    :func:`rho_vw` on the spin-1 set of the S_a, with its input checks
    (tr(w) = 3/(d lam) = 1/2)."""
    return rho_vw(GeneratorSet.from_generators(spin1_s_basis(), algebra=SU2_SPIN), v, w)


# ---------------------------------------------------------------------------
# g2 Bloch-radius refinement via characteristic-polynomial coefficients.

@dataclass(frozen=True)
class RadiusBound:
    coefficient_index: int
    v_squared_bound: float
    v_bound: float


@dataclass(frozen=True)
class G2TraceForms:
    """The g2 trace identities as forms in v, for every real v at once.

    tr((v.X)^2) = kappa2 v^2 and tr((v.X)^4) = kappa4 v^4 with exact
    ``kappa2`` and ``kappa4``; every odd power of v.X is traceless.  The
    residuals are max-norm misfits:

    * ``quadratic``: |tr(X_a X_b) - kappa2 delta_ab|;
    * ``quartic``: Q_abcd = tr(X_a X_b X_c X_d), symmetrized over the six
      orderings of b, c, d (with the cyclic trace that is every ordering),
      against kappa4 (delta_ab delta_cd + delta_ac delta_bd + delta_ad delta_bc)/3;
    * ``odd``: |X_a + X_a^T|.  A Hermitian X_a with X_a^T = -X_a is i times a
      real antisymmetric matrix, so v.X = i A with A real antisymmetric, and
      tr((v.X)^q) = i^q tr(A^q) = 0 for odd q, as A^q is antisymmetric.
    """

    kappa2: Fraction
    kappa4: Fraction
    odd: float
    quadratic: float
    quartic: float

    def radius_bounds(self) -> list[RadiusBound]:
        """The bounds of :func:`g2_bound_refine`, from these forms."""
        # c_q(x) = 7^{-q} sum_j binom(q, j) t_j(x), exact in x, with t_0 = 7,
        # t_2 = kappa2 x, t_4 = kappa4 x^2 and the odd traces zero; c_q has
        # degree q/2, so a_k has degree at most k/2 <= 2, and its exact values
        # at x = 0, 1, 2 fix its coefficients
        a_at = [newton_recursion([(7 + math.comb(q, 2) * self.kappa2 * x
                                   + math.comb(q, 4) * self.kappa4 * x * x)
                                  / Fraction(7**q) for q in range(1, 5)]) for x in (0, 1, 2)]
        bounds = []
        for k in (2, 3, 4):
            f0, f1, f2 = (a[k] for a in a_at)
            c2 = (f2 - 2 * f1 + f0) / 2
            x_max = _largest_nonneg_root([f0, f1 - f0 - c2, c2])
            bounds.append(RadiusBound(coefficient_index=k, v_squared_bound=x_max, v_bound=math.sqrt(x_max)))
        return bounds


def g2_trace_forms(g: GeneratorSet) -> G2TraceForms:
    """The trace forms of the g2 set g (:func:`liechan.repgen.g2_rep`), read
    from the set's pair table P_ab = X_a X_b: tr(X_a X_b) from its traces, and
    Q_abcd = tr(P_ab P_cd) as one 196 x 196 gemm.  kappa2 and kappa4 are the
    median diagonal values tr(X_a X_a) and Q_aaaa, rationalized (denominator
    at most 64), so that a minority of faulty generators shows in the
    residuals; a median more than 1e-9 from its rational raises
    ArithmeticError."""
    if g.d != 7 or g.k != 14:
        raise ValueError("expected the 7-dimensional g2 generator set")
    x, k, pairs = g.generators, g.k, g.pair_products
    gram = np.trace(pairs, axis1=2, axis2=3).real
    # rows and columns (a, b) of Q_abcd; (a, a) is every (k + 1)-th.  One
    # real copy, so that the complex product is freed at once
    quartic = (pairs.reshape(k * k, -1) @ pairs.transpose(0, 1, 3, 2).reshape(k * k, -1).T).real.copy()
    measured = (np.median(np.diag(gram)), np.median(np.diag(quartic)[::k + 1]))
    kappa2, kappa4 = (Fraction(float(m)).limit_denominator(64) for m in measured)
    if abs(float(kappa2) - measured[0]) > 1e-9 or abs(float(kappa4) - measured[1]) > 1e-9:
        raise ArithmeticError("trace ratios are not simple rationals")
    # less kappa4 delta_ab delta_cd, which the six orderings average to the target
    quartic[::k + 1, ::k + 1] -= float(kappa4)
    quartic = quartic.reshape((k,) * 4)
    # the six orderings of (b, c, d), summed in place in the order Python's
    # sum() would take them (only the sign of a zero can differ)
    orderings = [quartic.transpose(0, *p) for p in itertools.permutations((1, 2, 3))]
    symmetric = orderings[0] + orderings[1]
    for ordering in orderings[2:]:
        symmetric += ordering
    symmetric /= 6.0
    return G2TraceForms(
        kappa2=kappa2,
        kappa4=kappa4,
        odd=max_abs(x + x.transpose(0, 2, 1)),
        quadratic=max_abs(gram - float(kappa2) * np.eye(k)),
        quartic=max_abs(symmetric),
    )


def g2_bound_refine(g: GeneratorSet) -> list[RadiusBound]:
    """Successive bounds on the g2 Bloch radius from a_2, a_3, a_4 >= 0, for
    the g2 set g (:func:`liechan.repgen.g2_rep`).

    The power traces of v.beta are the exact forms of :func:`g2_trace_forms`
    (odd powers vanish; tr (v.beta)^2 = v^2/2 and tr (v.beta)^4 = v^4/16 =
    (tr (v.beta)^2)^2/4), and the Newton recursion is run exactly, on
    Fractions, at the three values of x = v^2 that fix each a_k as a
    polynomial in x.  The chain is x <= 84, x <= 28, and finally
    x <= 80 - 8 sqrt(65), i.e. |v| <= 3.94.
    """
    return g2_trace_forms(g).radius_bounds()


def _largest_nonneg_root(poly) -> float:
    """Largest x with poly >= 0 on [0, x], for polys positive at x = 0."""
    c0, c1, c2 = (poly + [Fraction(0)] * 3)[:3]
    if c2 == 0:
        if c1 >= 0:
            raise ArithmeticError("coefficient condition never binds")
        return float(-c0 / c1)
    disc = c1 * c1 - 4 * c0 * c2
    if disc < 0:
        raise ArithmeticError("coefficient condition never binds")
    root_disc = math.sqrt(float(disc))
    r1 = (-float(c1) - root_disc) / (2.0 * float(c2))
    r2 = (-float(c1) + root_disc) / (2.0 * float(c2))
    candidates = sorted(r for r in (r1, r2) if r > 0)
    if not candidates:
        raise ArithmeticError("coefficient condition never binds")
    return candidates[0]


# ---------------------------------------------------------------------------
# Sampling and empirical searches.

def sample_bloch_vectors(g: GeneratorSet, n: int, seed: int = 0) -> np.ndarray:
    """n vectors uniform in the bounding ball of radius R = sqrt((d-1)/N),
    which is guaranteed to contain the whole Bloch manifold.

    The whole draw is one call into one ``np.random.default_rng(seed)``: an
    (n, k + 2) array z of standard normals.  Row i is R z_i[:k] / |z_i|, the
    first k coordinates of a uniform point on the sphere S^(k+1) scaled by R;
    dropping two coordinates of a uniform point on S^(k+1) leaves a uniform
    point in the k-ball (Voelker, Gosmann & Stewart, "Efficiently sampling
    vectors and coordinates from the n-sphere and n-ball", CTN tech. report,
    2017).  numpy fills z row by row, so the first m rows of an n-sample draw
    are bitwise the m-sample draw at the same seed."""
    z = np.random.default_rng(seed).normal(size=(n, g.k + 2))
    norms = np.linalg.norm(z, axis=1)   # before out, so z * z is freed first
    out = z[:, :g.k] * math.sqrt(norm_bound(g))
    out /= norms[:, None]
    return out


def spin_vw_pure_weight(two_s: int) -> float:
    """Least weight a pure spin-s state puts outside the (v, w) span: the
    rank l >= 3 weight of a coherent state, sum_{l=3}^{2s} (2l + 1) (2s)!^2 /
    ((2s - l)! (2s + l + 1)!); 0 for s <= 1, 1/20 at s = 3/2, 4/35 at s = 2.
    Coherent states maximize every cumulative low-rank multipole sum (Bjork
    et al., PRA 92, 031801(R) (2015)), so no pure state does better."""
    f = math.factorial
    return float(sum(Fraction((2 * l + 1) * f(two_s) ** 2, f(two_s - l) * f(two_s + l + 1))
                     for l in range(3, two_s + 1)))


def spin_vw_purity_search(g: GeneratorSet) -> float:
    """Measured weight ||(1 - P) vec(psi psi^dag)||^2 of a coherent state psi
    outside span{I, J_a, J_(a J_b)}, the minimum over pure states
    (:func:`spin_vw_pure_weight`); g is the spin-s set.  P projects onto
    I/sqrt(d) and the orthonormal rows that span the traceless parts of the
    rank-1 and rank-2 monomials (``channel.traceless_basis``).  psi is the
    top eigenvector of n.J on the generic axis n = (1, sqrt 2, sqrt 3)/sqrt 6,
    formed from the set's own J, so the witness holds in any basis: the null
    vector of n.J - s, whose other singular values are 1, ..., 2s.  It has
    weight along every multipole direction, so a span missing any monomial
    shows; |s, s> sees only the diagonal ones.  The rank-2 monomials are the
    set's table ``g.pair_monomials``."""
    d = require_spin(g).d
    basis = traceless_basis(np.concatenate([g.generators, g.pair_monomials[1]]))
    nj = np.einsum("a,aij->ij", np.sqrt([1.0, 2.0, 3.0]) / math.sqrt(6.0), g.generators)
    psi = np.linalg.svd(nj - (d - 1) / 2 * np.eye(d))[2][-1].conj()
    rest = np.outer(psi, psi.conj()).ravel() / np.vdot(psi, psi).real
    rest -= basis.T @ (basis.conj() @ rest)
    rest[::d + 1] -= 1.0 / d
    return float(np.vdot(rest, rest).real)
