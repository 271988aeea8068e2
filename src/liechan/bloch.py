"""Generalized Bloch parameterizations and manifold membership.

A coefficient vector v parameterizes rho(v) = (I + sum_i v_i X_i)/d; the
Bloch manifold is the set of v for which rho(v) is positive semidefinite.
Membership is decided two independent ways (eigenvalues, and signs of the
characteristic-polynomial coefficients), with closed forms for su(3) and
radius bounds for every generator set.  The module also covers the
second-order (v, w) parameterization used by the spin channels, its
inversion, density-matrix decomposition into symmetrized generator
monomials, and the pure-state characterizations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from numpy.polynomial import Polynomial

from .channel import generator_action, spin_vw_input
from .matcore import (
    as_complex_matrix,
    char_poly_coeffs,
    derived_rng,
    max_abs,
    newton_recursion,
    sym_monomials,
    symmetric_tensor,
)
from .repgen import (
    SU_N_DEFINING,
    GeneratorSet,
    StructureTensors,
    g2_rep,
    require_spin,
    structure_tensors,
)

MEMBERSHIP_TOL = 1e-10
SPAN_TOL = 1e-8


class SpanDeficientError(ValueError):
    """The requested monomial basis does not span the target matrix;
    raise max_rank."""


def _coefficients(v, k: int) -> np.ndarray:
    """v as float, either one length-k vector or an (n, k) stack of them."""
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] != k:
        raise ValueError(f"expected a length-{k} coefficient vector or an (n, {k}) stack of them")
    return v


def _squares(x) -> np.ndarray:
    """sum_i x_i^2 along the last axis, formed per row as np.dot forms it
    (a numpy scalar for one row)."""
    return (x[..., None, :] @ x[..., :, None])[..., 0, 0][()]


def _flags(x) -> bool | np.ndarray:
    """A Python bool for one input, the boolean array for a stack."""
    return bool(x) if x.ndim == 0 else x


def bloch_rho(g: GeneratorSet, v) -> np.ndarray:
    """rho(v) = (I + sum_i v_i X_i)/d, or the (n, d, d) stack of them for an
    (n, k) stack of v.  Hermitian with unit trace for any real v; positive
    semidefiniteness is exactly membership of v in the Bloch manifold and is
    not checked here."""
    v = _coefficients(v, g.k)
    # generator i's coefficients: a scalar for one v, an (n, 1, 1) column for
    # a stack; the sum runs over i in the same order either way
    columns = v if v.ndim == 1 else v.T[:, :, None, None]
    acc = np.eye(g.d, dtype=np.complex128)
    for vi, x in zip(columns, g.generators):
        acc = acc + vi * x
    return acc / g.d


def bloch_vector(g: GeneratorSet, rho) -> np.ndarray:
    """Invert rho = (I + v.X)/d on the generator span: v_a = tr(rho X_a)/N."""
    m = as_complex_matrix(rho)
    return np.array([np.trace(m @ x).real / g.N for x in g.generators])


def psd_by_eigenvalues(ev) -> bool | np.ndarray:
    """The eig oracle's rule on the ascending eigenvalues of rho(v), shape
    (d,) or (n, d): the least one is >= -1e-10."""
    return _flags(np.asarray(ev).T[0] >= -MEMBERSHIP_TOL)


def membership_eig(g: GeneratorSet, v) -> bool | np.ndarray:
    """v is a valid Bloch vector iff min eig of rho(v) >= -1e-10; one bool
    per row for an (n, k) stack."""
    return psd_by_eigenvalues(np.linalg.eigvalsh(bloch_rho(g, v)))


# The charpoly oracle reads the coefficients b_k = e_k(mu) of N = rho/||rho||_F.
# Its eigenvalues mu have sum mu^2 = 1, so |mu| <= 1 and every power trace
# p_q = tr N^q of the Newton recursion in char_poly_coeffs has |p_q| <= 1
# for q >= 2 (p_1 <= sqrt(d)).  With u = eps/2 the unit roundoff and
# B = max_k |b_k| (>= b_0 = 1), the recursion's errors are:
# * data: p_q takes q - 1 products of matrices with entries bounded by 1,
#   each entry a length-d dot product, and a d-term trace, so
#   |dp_q| <= q d^2 u.  Since sum_k b_k t^k = exp(sum_q (-1)^(q-1) p_q t^q/q),
#   db_k/dp_q = (-1)^(q-1) b_(k-q)/q exactly, and b_k moves by at most
#   sum_(q<=k) d^2 u |b_(k-q)| <= d^3 u B to first order;
# * rounding: step k sums k products of size at most B (sqrt(d) for q = 1)
#   and divides by k, O(d u B), below the data term for d >= 2.
# So b_k >= -2 d^3 u B = -d^3 eps B accepts every PSD rho, to first order
# with a factor two to spare (measured errors on low-rank su(n) states up to
# d = 8 stay below 1e-15 B).  Scaling by ||rho||_F, not d, keeps the p_q bounded: the
# eigenvalues of d*rho reach d on pure states, where the terms of the
# recursion grow like d^d.
CHARPOLY_EPS = float(np.finfo(float).eps)


def psd_by_charpoly(rho) -> bool | np.ndarray:
    """The charpoly oracle's rule on rho(v), shape (d, d) or (n, d, d):
    Descartes' rule of signs, all characteristic-polynomial coefficients
    nonnegative, read on rho/||rho||_F to within the recursion's rounding,
    d^3 eps max_k |b_k|."""
    rho = np.asarray(rho)
    d = rho.shape[-1]
    # ||rho||_F as np.linalg.norm forms it for one matrix
    flat = rho.reshape(rho.shape[:-2] + (d * d,))
    norm = np.sqrt(_squares(flat.real) + _squares(flat.imag))
    b = char_poly_coeffs(rho / norm[..., None, None])
    return _flags(b.min(axis=0) >= -d ** 3 * CHARPOLY_EPS * np.abs(b).max(axis=0))


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
    stack."""
    v = _coefficients(v, 8)
    t = tensors if tensors is not None else _su3_tensors()
    det = (2.0 / 3.0) * np.einsum("ijk,...i,...j,...k->...", t.d_sym, v, v, v)
    vv = _squares(v)
    # vv <= min(3, 1 + det) + tol, as two comparisons (adding tol is monotone)
    return _flags((vv <= 3.0 + MEMBERSHIP_TOL) & (vv <= 1.0 + det + MEMBERSHIP_TOL))


_SU3_TENSORS: StructureTensors | None = None


def _su3_tensors() -> StructureTensors:
    global _SU3_TENSORS
    if _SU3_TENSORS is None:
        _SU3_TENSORS = structure_tensors(3)
    return _SU3_TENSORS


# ---------------------------------------------------------------------------
# Cartan polytope: the weight half-spaces v . h^j >= -1.

def cartan_indices(g: GeneratorSet) -> list[int]:
    """Indices of the diagonal (simultaneously diagonalized) generators."""
    out = []
    for a, x in enumerate(g.generators):
        if max_abs(x - np.diag(np.diag(x))) <= 1e-12:
            out.append(a)
    return out


def weight_vectors(g: GeneratorSet, indices) -> np.ndarray:
    """Rows h^j: the j-th diagonal entries of the chosen Cartan generators."""
    for a in indices:
        x = g.generators[a]
        if max_abs(x - np.diag(np.diag(x))) > 1e-12:
            raise ValueError(f"generator {a} is not diagonal; Cartan slots must be")
    return np.array([[g.generators[a][j, j].real for a in indices] for j in range(g.d)])


def cartan_polytope_membership(g: GeneratorSet, v_cartan, indices=None) -> bool:
    """Membership of a vector supported on the Cartan slots, via the
    half-space conditions 1 + v . h^j >= 0 over the weights h^j.  This
    polytope is always contained in the full Bloch manifold."""
    v = np.asarray(v_cartan, dtype=float)
    if indices is None:
        indices = cartan_indices(g)[: v.shape[0]]
    if len(indices) != v.shape[0]:
        raise ValueError(
            f"need {v.shape[0]} diagonal Cartan generators, found {len(indices)}"
        )
    h = weight_vectors(g, indices)
    return bool((1.0 + h @ v).min() >= -MEMBERSHIP_TOL)


def embed_cartan(g: GeneratorSet, v_cartan, indices=None) -> np.ndarray:
    """The full k-vector with v_cartan placed on the Cartan slots."""
    v = np.asarray(v_cartan, dtype=float)
    if indices is None:
        indices = cartan_indices(g)[: v.shape[0]]
    if len(indices) != v.shape[0]:
        raise ValueError("not enough Cartan slots")
    full = np.zeros(g.k)
    for value, a in zip(v, indices):
        full[a] = value
    return full


# ---------------------------------------------------------------------------
# Second-order (v, w) parameterization for spin representations.

def rho_vw(g: GeneratorSet, v, w) -> np.ndarray:
    """rho = v.J + sum_ab w_ab J_(a J_b) for the spin-s set g.

    The trace comes entirely from the w term; unit trace requires
    tr(w) = 3/(d lam) with lam = s(s+1), which is enforced here.
    Positivity is not guaranteed.
    """
    v, w = spin_vw_input(g, v, w)
    return _contract(g.generators, v, w)


def _contract(gens, v, w=None, u=None) -> np.ndarray:
    """sum_a v_a X_a + sum_ab w_ab X_a X_b + sum_abc u_abc X_a X_b X_c over
    the generators X; w enters through its symmetric part, and an absent
    higher-rank tensor is skipped."""
    acc = np.zeros(gens[0].shape, dtype=np.complex128)
    for va, x in zip(v, gens):
        acc += va * x
    if w is None:
        return acc
    stack = np.stack(gens)
    prods = np.einsum("aij,bjk->abik", stack, stack)
    acc += np.einsum("ab,abik->ik", (w + w.T) / 2.0, prods)
    if u is not None:
        acc += np.einsum("abc,abcil->il", u, np.einsum("abij,cjl->abcil", prods, stack))
    return acc


def extract_vw(rho, g: GeneratorSet, check: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Invert rho = v.J + sum w_ab J_(a J_b) for a unit-trace rho:

        v_a  = (3/(d lam)) tr(rho J_a)
        w_jk = (30/(lam d (d^2-4))) tr(rho J_(j J_k))
               - ((2 lam + 1)/(d^2-4)) tr(w) delta_jk

    with tr(w) = 3/(d lam).  Only meaningful for d >= 3 (for d = 2 the
    symmetrized pair products collapse onto the identity).  With
    ``check=True`` a reconstruction residual above 1e-8 raises
    SpanDeficientError, signaling a rho outside the (v, w) span.
    """
    if require_spin(g).d < 3:
        raise ValueError("extract_vw requires two_s >= 2 (dimension >= 3)")
    m = as_complex_matrix(rho)
    if m.shape != (g.d, g.d):
        raise ValueError("dimension mismatch")
    d = g.d
    lam = g.Z
    v = np.array([(3.0 / (d * lam)) * np.trace(m @ j).real for j in g.generators])
    trw = 3.0 / (d * lam) * np.trace(m).real
    pairs, products = sym_monomials(g.generators, 2)
    vals = np.array([(30.0 / (lam * d * (d * d - 4.0))) * np.trace(m @ x).real for x in products])
    vals[[j == k for j, k in pairs]] -= (2.0 * lam + 1.0) / (d * d - 4.0) * trw
    w = symmetric_tensor(pairs, vals, 3)
    if check:
        resid = max_abs(m - _contract(g.generators, v, w))
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

    def to_json(self) -> dict:
        def pack(t):
            if t is None:
                return None
            return {"shape": list(t.shape), "data": [float(x) for x in t.ravel()]}

        return {
            "algebra": self.algebra,
            "d": self.d,
            "k": self.k,
            "v": pack(self.v),
            "w": pack(self.w),
            "u": pack(self.u),
            "residual": self.residual,
            "trace_parts": {str(r): val for r, val in self.trace_parts.items()},
        }


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
    monomials = {r: sym_monomials(g.generators, r) for r in range(1, max_rank + 1)}
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
    return np.eye(g.d) / g.d + _contract(g.generators, state.v, state.w, state.u)


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
    t = tensors if tensors is not None else structure_tensors(g.d)
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
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("psi must be normalized")
    w = 0.5 * np.eye(3) - np.real(np.outer(psi, psi.conj()))
    v = np.cross(psi.real, psi.imag)
    return v, w


def rho_vw_s_basis(v, w) -> np.ndarray:
    """rho = v.S + sum w_ab S_(a S_b) in the antisymmetric spin-1 basis."""
    return _contract(spin1_s_basis(), np.asarray(v, float), np.asarray(w, float))


# ---------------------------------------------------------------------------
# g2 Bloch-radius refinement via characteristic-polynomial coefficients.

@dataclass(frozen=True)
class RadiusBound:
    coefficient_index: int
    v_squared_bound: float
    v_bound: float


def g2_bound_refine(g: GeneratorSet | None = None) -> list[RadiusBound]:
    """Successive bounds on the g2 Bloch radius from a_2, a_3, a_4 >= 0.

    The power traces of v.beta are measured from the generators (odd powers
    vanish; tr (v.beta)^2 = v^2/2 and tr (v.beta)^4 = v^4/16 =
    (tr (v.beta)^2)^2/4), then the Newton recursion is run exactly on
    polynomials in x = v^2.  The chain is x <= 84, x <= 28, and finally
    x <= 80 - 8 sqrt(65), i.e. |v| <= 3.94.
    """
    gset = g if g is not None else g2_rep()
    if gset.d != 7 or gset.k != 14:
        raise ValueError("expected the 7-dimensional g2 generator set")
    kappa2, kappa4 = _measured_trace_ratios(gset)
    # c_q(x) = 7^{-q} sum_j binom(q, j) t_j(x), exact polynomials in x, with
    # t_0 = 7, t_2 = kappa2 x, t_4 = kappa4 x^2 and the odd traces zero; c_q
    # has degree q/2, so a_k has degree at most k/2 <= 2
    c = [Polynomial([Fraction(7), math.comb(q, 2) * kappa2, math.comb(q, 4) * kappa4]) / 7**q
         for q in range(1, 5)]
    a = newton_recursion(c)
    bounds = []
    for k in (2, 3, 4):
        x_max = _largest_nonneg_root(list(a[k].coef))
        bounds.append(
            RadiusBound(
                coefficient_index=k,
                v_squared_bound=x_max,
                v_bound=math.sqrt(x_max),
            )
        )
    return bounds


def trace_powers(stack: np.ndarray, v) -> list:
    """tr((v.X)^q).real for q = 1..5, with X the stacked generators."""
    vb = np.einsum("a,aij->ij", v, stack)
    return [np.trace(np.linalg.matrix_power(vb, q)).real for q in range(1, 6)]


def _measured_trace_ratios(gset: GeneratorSet) -> tuple[Fraction, Fraction]:
    stack = np.stack(gset.generators)
    r2s, r4s = [], []
    for i in range(6):
        rng = derived_rng(97, i)
        v = rng.normal(size=14)
        x = float(v @ v)
        powers = trace_powers(stack, v)
        if max(abs(powers[0]), abs(powers[2]), abs(powers[4])) > 1e-9 * max(1.0, x**2):
            raise ArithmeticError("odd trace powers of v.beta do not vanish")
        r2s.append(powers[1] / x)
        r4s.append(powers[3] / (x * x))
    k2 = Fraction(float(np.mean(r2s))).limit_denominator(64)
    k4 = Fraction(float(np.mean(r4s))).limit_denominator(64)
    if abs(float(k2) - np.mean(r2s)) > 1e-9 or abs(float(k4) - np.mean(r4s)) > 1e-9:
        raise ArithmeticError("trace ratios are not simple rationals")
    return k2, k4


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
    """n vectors uniform in the bounding ball of radius sqrt((d-1)/N),
    which is guaranteed to contain the whole Bloch manifold."""
    radius = math.sqrt(norm_bound(g))
    out = np.empty((n, g.k))
    for i in range(n):
        rng = derived_rng(seed, i)
        direction = rng.normal(size=g.k)
        direction /= np.linalg.norm(direction)
        out[i] = radius * rng.uniform() ** (1.0 / g.k) * direction
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
    """Measured weight ||(1 - P) vec(psi psi^dag)||^2 of the coherent state
    psi = |s, s> outside span{I, J_a, J_(a J_b)}, the minimum over pure
    states (:func:`spin_vw_pure_weight`).  The span is the l = 0, 1, 2
    eigenspaces of L (eigenvalue s(s+1) - l(l+1)/2 on rank l), and P projects
    onto it through their orthonormal eigenvectors; g is the spin-s set."""
    evals, evecs = np.linalg.eigh(generator_action(require_spin(g)))
    span = evecs[:, evals > g.Z - 4.5]   # l = 2 sits at Z - 3, l = 3 at Z - 6
    rest = -span @ span[0].conj()         # -P vec(|s, s><s, s|), as J_3 = diag(s, ..., -s)
    rest[0] += 1.0
    return float(np.vdot(rest, rest).real)
