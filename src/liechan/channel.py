"""Kraus channels built from generator sets, and their diagnostics.

The central map is

    rho -> (1 - p) rho + (p / Z) sum_i X_i rho X_i,

realized by Kraus operators M_0 = sqrt(1-p) I and M_i = sqrt(p/Z) X_i for a
generator set with Casimir constant Z; on the operator space it is the matrix
(1 - p) I + (p / Z) L of :func:`generator_action`.  This module also provides
channel extension and the double channel, depolarizing detection, the spin-s
action on (v, w) coefficients, discovery of r -> r-2 product identities and
the critical error probabilities they induce, minimal output entropy of the
su(n) channel, maximal l_q norms, and the Werner-Holevo map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .matcore import (
    DensityMatrix,
    as_complex_matrix,
    as_complex_stack,
    as_density,
    derived_rng,
    max_abs,
    random_pure_statevector,
    readonly_copy,
    sym_monomial_slabs,
    symmetric_tensor,
)
from .repgen import GeneratorSet, clifford_gamma, require_spin

NORMALIZATION_TOL = 1e-9
DEPOLARIZING_FIT_TOL = 1e-8
SPECIAL_SPREAD_TOL = 1e-8
CRITICAL_MAP_TOL = 1e-8


class POutOfRangeError(ValueError):
    """Error probability outside [0, 1]; the Kraus family cannot be
    normalized and the map is not trace preserving."""


class NormalizationError(ValueError):
    """Kraus operators with sum M^dag M != I beyond 1e-9; ``deviation`` is
    the max-norm of sum M^dag M - I (:func:`normalization_deviation`)."""

    def __init__(self, deviation: float):
        super().__init__(f"normalization sum M^dag M = I violated by {deviation:.3e}")
        self.deviation = deviation


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A trace-preserving channel given by its Kraus operators, one read-only
    complex128 ``(m, d, d)`` array copied once from the given matrices.

    Normalization sum_mu M_mu^dag M_mu = I is enforced within 1e-9 on
    construction (NormalizationError).
    """

    ops: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not isinstance(self.ops, np.ndarray) and len({np.shape(m) for m in self.ops}) > 1:
            raise ValueError("Kraus operators must share one dimension")
        if not len(self.ops):
            raise ValueError("a channel needs at least one Kraus operator")
        ops = as_complex_stack(readonly_copy(self.ops))
        object.__setattr__(self, "ops", ops)
        dev = normalization_deviation(ops)
        if dev > NORMALIZATION_TOL:
            raise NormalizationError(dev)

    @property
    def dim(self) -> int:
        return self.ops.shape[1]


def normalization_deviation(ops: Sequence) -> float:
    """max-norm of sum_mu M_mu^dag M_mu - I, one product of the (m d, d) stack."""
    flat = np.reshape(ops, (-1, np.shape(ops)[-1]))
    return max_abs(flat.conj().T @ flat - np.eye(flat.shape[1]))


def _p_outside(p) -> POutOfRangeError:
    return POutOfRangeError(
        f"p = {p} lies outside [0, 1]; no normalization constant makes "
        "the map trace preserving for such p"
    )


def build_channel(g: GeneratorSet, p: float) -> KrausChannel:
    """Kraus operators sqrt(1-p) I and sqrt(p/Z) X_i for the generator set."""
    if not 0.0 <= p <= 1.0:
        raise _p_outside(p)
    parts = []
    if p < 1.0:
        parts.append(math.sqrt(1.0 - p) * np.eye(g.d, dtype=np.complex128)[None])
    if p > 0.0:
        parts.append(math.sqrt(p / g.Z) * g.generators)
    return KrausChannel(ops=np.concatenate(parts))


def apply_matrix(ch: KrausChannel, m) -> np.ndarray:
    """The channel as a linear map on matrices (no density-matrix checks)."""
    m = as_complex_matrix(m)
    if m.shape != (ch.dim, ch.dim):
        raise ValueError(f"dimension mismatch: channel {ch.dim}, input {m.shape}")
    # the terms summed in operator order onto +0, as a loop over the operators would
    return (ch.ops @ m @ ch.ops.conj().transpose(0, 2, 1)).sum(axis=0, initial=0.0)


@dataclass(frozen=True, eq=False)
class KrausStack:
    """The channels of one generator set at each p of a stack, each row's
    Kraus family formed as :func:`build_channel` forms it, with no
    normalization enforced: ``deviations[i]`` is row i's
    :func:`normalization_deviation`, for the caller to judge against
    NORMALIZATION_TOL.  The rows whose families keep the same parts (p = 0
    drops the generators', p = 1 the identity's) share one ``(rows, ops)``
    group, ``ops`` of shape ``(len(rows), m, d, d)``."""

    d: int
    groups: tuple = field(repr=False)
    deviations: np.ndarray = field(repr=False)


def build_channels(g: GeneratorSet, ps) -> KrausStack:
    """:func:`build_channel` at each p of a 1-D stack, every family and its
    deviation bitwise the one-p result; a p outside [0, 1] raises the same
    POutOfRangeError, for the first such p."""
    ps = np.asarray(ps, dtype=float)
    if ps.ndim != 1:
        raise ValueError("expected a 1-D stack of p")
    outside = ~((0.0 <= ps) & (ps <= 1.0))
    if outside.any():
        raise _p_outside(float(ps[outside][0]))
    eye = np.eye(g.d, dtype=np.complex128)
    groups, deviations = [], np.empty(len(ps))
    for keep_eye, keep_gens in ((True, True), (True, False), (False, True)):
        rows = np.flatnonzero(((ps < 1.0) == keep_eye) & ((ps > 0.0) == keep_gens))
        if not len(rows):
            continue
        parts = []
        if keep_eye:
            parts.append((np.sqrt(1.0 - ps[rows])[:, None, None] * eye)[:, None])
        if keep_gens:
            parts.append(np.sqrt(ps[rows] / g.Z)[:, None, None, None] * g.generators)
        ops = np.concatenate(parts, axis=1)
        flat = ops.reshape(len(rows), -1, g.d)   # normalization_deviation's product, row by row
        deviations[rows] = np.abs(flat.conj().transpose(0, 2, 1) @ flat - np.eye(g.d)).max(axis=(1, 2))
        groups.append((rows, ops))
    return KrausStack(d=g.d, groups=tuple(groups), deviations=deviations)


def apply_matrices(chs: KrausStack, ms) -> np.ndarray:
    """Row i of the ``(n, d, d)`` stack ``ms`` through row i's channel,
    bitwise :func:`apply_matrix`: the same two products per operator and
    the same fold over the operators, for each group of rows at once."""
    ms = as_complex_stack(ms)
    if ms.shape != (len(chs.deviations), chs.d, chs.d):
        raise ValueError(f"expected {len(chs.deviations)} matrices of dimension {chs.d}, got {ms.shape}")
    out = np.empty_like(ms)
    for rows, ops in chs.groups:
        out[rows] = (ops @ ms[rows, None] @ ops.conj().transpose(0, 1, 3, 2)).sum(axis=1, initial=0.0)
    return out


def superoperator(ops: np.ndarray) -> np.ndarray:
    """sum_k K (x) conj(K) over a stack: the d^2 x d^2 matrix of M -> sum_k K M K^dag
    on row-major vec(M) (Watrous, The Theory of Quantum Information, 2018, ch. 2),
    permuted in place from the Gram product one d^3 block at a time."""
    n, d, _ = ops.shape
    flat = ops.reshape(n, d * d)
    s = (flat.T @ flat.conj()).reshape(d, d, d, d)
    for block in s:
        block[...] = block.transpose(1, 0, 2).copy()
    return s.reshape(d * d, d * d)


def generator_action(g: GeneratorSet) -> np.ndarray:
    """L = sum_i X_i (x) conj(X_i), the Hermitian matrix of M -> sum_i X_i M X_i
    on row-major vec(M).  The channel of g at p is (1 - p) I + (p/Z) L; each
    eigenvalue g_r of L on traceless operators gives the critical
    probability Z/(Z - g_r), and vec(I) has eigenvalue Z."""
    return superoperator(g.generators)


def apply(ch: KrausChannel, rho) -> DensityMatrix:
    """Apply to a density matrix; the output is re-validated."""
    rho = as_density(rho)
    return DensityMatrix(apply_matrix(ch, rho.matrix))


def su_n_factor(p: float, n: int) -> float:
    """Depolarizing factor of the su(n) channel: ((1-p) n^2 - 1)/(n^2 - 1)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return ((1.0 - p) * n * n - 1.0) / (n * n - 1.0)


def su_n_critical(n: int) -> float:
    """The error probability 1 - 1/n^2 at which the su(n) channel sends
    every input to the maximally mixed state."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return 1.0 - 1.0 / (n * n)


def detect_depolarizing(ch: KrausChannel) -> float | None:
    """lambda with ch(M) = lambda M + (1 - lambda) tr(M) I/d for all M, or None.

    Read in place from the Choi matrix J = sum_k vec(K) vec(K)^dag, whose
    entry J[(i,j),(k,l)] is S[(i,k),(j,l)] of the superoperator S: lambda =
    (tr S - 1)/(d^2 - 1), tr S the sum of J's vec(I) block, and the channel
    is depolarizing when every entry is within DEPOLARIZING_FIT_TOL = 1e-8 of
    T = lambda I + ((1 - lambda)/d) vec(I) vec(I)^T, the target's superoperator,
    which J holds as lambda on that block plus (1 - lambda)/d on the diagonal.
    """
    d = ch.dim
    if d == 1:
        return None   # the only 1 x 1 channel is the identity: lambda is undetermined
    flat = ch.ops.reshape(len(ch.ops), d * d)
    choi = flat.T @ flat.conj()
    block = choi[:: d + 1, :: d + 1]     # a view: block[i, k] = S[(i,k),(i,k)]
    lam = (float(block.ravel().sum().real) - 1.0) / (d * d - 1.0)
    spread = (1.0 - lam) / d
    corners = block.diagonal() - (lam + spread)   # where both terms of T meet
    block -= lam
    choi.reshape(-1)[:: d * d + 1] -= spread
    np.fill_diagonal(block, corners)
    return lam if max_abs(choi) <= DEPOLARIZING_FIT_TOL else None


# ---------------------------------------------------------------------------
# Closed-form spin-s action on (v, w) coefficients.

def spin_vw_input(g: GeneratorSet, v, w) -> tuple[np.ndarray, np.ndarray]:
    """(v, w) as float arrays for the spin set g, or ValueError unless v is a
    3-vector and w a symmetric 3x3 tensor with the unit-trace normalization
    tr(w) = 3/(d lam), lam = s(s+1).  An (n, 3) stack of v with an (n, 3, 3)
    stack of w is checked row by row, v's ndim choosing the path: a stack
    with one bad row raises that row's own message."""
    require_spin(g)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] != 3 or w.shape != v.shape[:-1] + (3, 3):
        raise ValueError("expected a 3-vector v and 3x3 tensor w")
    if not (np.isfinite(v).all() and np.isfinite(w).all()):
        raise ValueError("v and w must be finite (no NaN/Inf)")
    if max_abs(w - np.swapaxes(w, -1, -2)) > 1e-10:
        raise ValueError("w must be symmetric")
    if max_abs(np.trace(w, axis1=-2, axis2=-1) - 3.0 / (g.d * g.Z)) > 1e-10:
        raise ValueError(f"tr(w) must equal 3/(d lam) = {3.0 / (g.d * g.Z)}")
    return v, w


def spin_channel_vw(g: GeneratorSet, p: float, v, w) -> tuple[np.ndarray, np.ndarray]:
    """Action of the channel of the spin-s set g on rho = v.J + sum w_ab J_(a J_b):

        v  -> (1 - p/lam) v
        w  -> (1 - 3p/lam) w + (p tr(w)/lam) delta

    with lam = s(s+1).  Requires tr(w) = 3/(d lam), the unit-trace
    normalization; for s = 1 this specializes to v' = (1 - p/2) v and
    w' = (1 - 3p/2) w + (p/4) delta.  A 1-D stack of p with stacks of v
    and w (:func:`spin_vw_input`) gives stacks of v' and w', each row
    bitwise the one-p result.
    """
    p_arr = np.asarray(p, dtype=float)
    outside = ~((0.0 <= p_arr) & (p_arr <= 1.0))
    if outside.any():
        raise POutOfRangeError(f"p = {p if p_arr.ndim == 0 else float(p_arr[outside][0])} lies outside [0, 1]")
    v, w = spin_vw_input(g, v, w)
    if p_arr.shape != v.shape[:-1]:
        raise ValueError("expected one p per (v, w) row")
    lam = g.Z
    v2 = (1.0 - p_arr / lam)[..., None] * v
    trace = np.trace(w, axis1=-2, axis2=-1)
    w2 = (1.0 - 3.0 * p_arr / lam)[..., None, None] * w + (p_arr * trace / lam)[..., None, None] * np.eye(3)
    return v2, w2


@dataclass(frozen=True)
class WIteration:
    """n-fold spin-1 channel action on a second-order ("W") state.

    The map is w -> F(p) (delta - 6 w) + w where F is the degree-n
    polynomial built from F_next(p) = (1 - 3p/2) F(p) + p/4 starting at
    F = 0 for zero applications (so one application gives F = p/4, which
    reproduces w -> (1 - 3p/2) w + (p/4) delta).  In closed form
    F(p) = (1 - (1 - 3p/2)^n) / 6.

    For a 1-D stack of p, ``p`` and ``value`` are arrays and ``apply_to``
    takes one w per p; every entry is bitwise the one-p result.
    """

    n: int
    p: float | np.ndarray
    coefficients: tuple  # ascending powers of p
    value: float | np.ndarray

    def apply_to(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        if w.shape != np.shape(self.value) + (3, 3):
            raise ValueError("expected a 3x3 tensor" + (" per p" if np.ndim(self.value) else ""))
        return np.asarray(self.value)[..., None, None] * (np.eye(3) - 6.0 * w) + w


def iterate_w_polynomial(p: float, n: int) -> WIteration:
    if n < 1:
        raise ValueError("n must be >= 1")
    # F -> (1 - 3p/2) F + p/4 on ascending coefficient lists, in
    # numpy.polynomial's operation order: each coefficient of the product a
    # two-term sum (+0 when zero), trailing zeros trimmed, Horner from the top
    coeffs = [0.0]
    for _ in range(n):
        coeffs = [0.0 + (a - 1.5 * b) for a, b in zip(coeffs + [0.0], [0.0] + coeffs)]
        coeffs[1] += 0.25
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
    p = np.asarray(p, dtype=float)
    value = coeffs[-1] + p * 0
    for c in reversed(coeffs[:-1]):
        value = c + value * p
    if p.ndim:
        return WIteration(n=n, p=p, coefficients=tuple(coeffs), value=value)
    return WIteration(n=n, p=float(p), coefficients=tuple(coeffs), value=float(value))


# ---------------------------------------------------------------------------
# Extensions.

def extend(base_ops: Sequence, ext_ops: Sequence, at_index: int) -> KrausChannel:
    """Extend the channel given by ``base_ops`` (the B set) using the
    normalized family ``ext_ops`` (the A set) on its element at ``at_index``:
    the result is {A_0, ..., A_{r-1} without A_r} + {B_j A_r}.

    Both inputs must satisfy the normalization condition; the output then
    does as well, since sum (B_j A)^dag (B_j A) = A^dag A.
    """
    a_ops = as_complex_stack(ext_ops)
    b_ops = as_complex_stack(base_ops)
    for name, ops in (("base", b_ops), ("extension", a_ops)):
        if normalization_deviation(ops) > NORMALIZATION_TOL:
            raise ValueError(f"{name} operator set is not normalized")
    if not 0 <= at_index < len(a_ops):
        raise ValueError("at_index out of range")
    new_ops = np.concatenate([a_ops[:at_index], b_ops @ a_ops[at_index], a_ops[at_index + 1:]])
    return KrausChannel(ops=new_ops)


def double_channel(g: GeneratorSet) -> KrausChannel:
    """Kraus operators {X_i X_j / Z}: the base channel extended by itself
    on every element."""
    ops = g.pair_products.reshape(g.k * g.k, g.d, g.d) / g.Z   # [i k + j] = X_i X_j / Z
    return KrausChannel(ops=ops)


def clifford_vector_channel(g: GeneratorSet, xs: Sequence) -> KrausChannel:
    """The channel rho -> c^(-1) sum_i gamma(x_i) rho gamma(x_i) for nonzero
    vectors x_i, with c the scalar defined by sum_i gamma(x_i)^2 = c I.

    With the form <x,y> = 2 x.y fixed here, {gamma(x), gamma(y)} = <x,y> I
    gives gamma(x)^2 = (<x,x>/2) I, so c = sum_i <x_i,x_i>/2; dividing by c
    is exactly what makes the map trace preserving.  c is measured from the
    matrices rather than assumed.
    """
    if not len(xs):
        raise ValueError("at least one vector is required")
    gammas = np.array([clifford_gamma(x, g) for x in xs])
    square_sum = sum(gm @ gm for gm in gammas)
    total = np.trace(square_sum).real / g.d
    if total <= 0 or max_abs(square_sum - total * np.eye(g.d)) > 1e-10:
        raise ValueError("sum of squared gamma(x_i) is not a positive scalar")
    scale = 1.0 / math.sqrt(total)
    return KrausChannel(ops=scale * gammas)


# ---------------------------------------------------------------------------
# Product identity discovery: sum_i X_i M X_i = f_M I + g_M M for the
# symmetrized rank-r monomials M.

@dataclass(frozen=True, eq=False)
class IdentityReport:
    """Fit of sum_i X_i M X_i = f_M I + g_M M over all symmetrized rank-r
    monomials M of a generator set with Casimir constant ``Z``.

    ``special`` is True when a single scalar g works for every monomial
    (within 1e-8 across the monomials whose g is numerically identifiable);
    ``g`` is that scalar, or None if no monomial pins it down.  ``residual``
    is the worst per-monomial max-norm fit error.  ``f_tensor``/``g_tensor``
    hold the per-monomial coefficients at every index permutation; they are
    filled on first read, since the critical values need neither; the
    report is the rank's :func:`critical_values` entry, ``verified`` None
    until that checks it.

    Of the monomials M the report keeps only the TSQR factor of their
    traceless parts, if the fit is special (``_r``); ``residual_with``
    streams the monomials again through :func:`pinned_residual`.
    """

    rank: int
    k: int
    Z: float
    special: bool
    g: float | None
    residual: float
    multisets: tuple = field(repr=False)
    informative: tuple = field(repr=False)
    _f: np.ndarray = field(repr=False)            # f_M per monomial
    _g: np.ndarray = field(repr=False)            # g_M per monomial, NaN where not pinned
    _set: GeneratorSet = field(repr=False)
    _action: np.ndarray = field(repr=False)       # L, the transforms' matrix
    _r: np.ndarray | None = field(repr=False)     # a special fit's TSQR factor
    verified: bool | None = None   # map of the traceless rank-r span to 0, if checked

    @property
    def p_value(self) -> float | None:
        """p_r = Z/(Z - g), None unless g is pinned and Z - g is beyond 1e-12."""
        return None if self.g is None or abs(self.Z - self.g) <= 1e-12 else self.Z / (self.Z - self.g)

    @property
    def in_range(self) -> bool:
        """g < 0 beyond a 1e-12 fuzz band, so a numerically-zero g (p_r = 1) reads False."""
        return self.g is not None and self.g < -1e-12

    @cached_property
    def f_tensor(self) -> np.ndarray:
        return symmetric_tensor(self.multisets, self._f, self.k)

    @cached_property
    def g_tensor(self) -> np.ndarray:
        return symmetric_tensor(self.multisets, self._g, self.k)

    def residual_with(self, g0: float) -> float:
        """Worst fit error when g is pinned to g0 and only f re-fitted."""
        return pinned_residual(self._set, self.rank, g0, self._action)


def _traces(stack: np.ndarray) -> np.ndarray:
    """Re tr of each matrix of an (n, d, d) stack."""
    return np.trace(stack, axis1=1, axis2=2).real


def _traceless(stack: np.ndarray, traces: np.ndarray) -> np.ndarray:
    """A copy of the stack with each matrix's trace part (of its _traces) removed."""
    out = stack.copy()
    diag = np.arange(stack.shape[1])
    out[:, diag, diag] -= (traces / stack.shape[1])[:, None]
    return out


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re tr(A^dag B) per pair in two contiguous stacks, from their float views."""
    return np.einsum("nk,nk->n", a.reshape(len(a), -1).view(float), b.reshape(len(b), -1).view(float))


def _tsqr_step(r_factor: np.ndarray | None, stack: np.ndarray) -> np.ndarray:
    """R of a QR of the rows of ``r_factor`` over the stack's vec rows: the
    stack's own R, stacked under ``r_factor`` (if any) and factored again
    (TSQR: Demmel, Grigori, Hoemmen & Langou, SIAM J. Sci. Comput. 34,
    2012), so at most d^2 x d^2 is held beyond the stack."""
    part = np.linalg.qr(stack.reshape(len(stack), -1), mode="r")
    return part if r_factor is None else np.linalg.qr(np.concatenate([r_factor, part]), mode="r")


# Bytes of monomials in one row block of the identity fit, which holds about
# five such stacks at once: the block, its transforms and traceless part,
# and the QR's two copies.
FIT_BLOCK_BYTES = 1 << 17
# Fewest monomials in a row block: each block's product reads all d^4
# entries of L, which at spin two_s = 63 takes as long as the product of 16
# rows.  At least 3, so that no block of near-equal size is one row.
FIT_BLOCK_ROWS = 16


def _monomial_blocks(g: GeneratorSet, r: int, action: np.ndarray) -> tuple[tuple, Iterator]:
    """The rank-r multisets of the set ``g`` and an iterator over their
    monomials M (folded on ``g.pair_products``) in row blocks ``(rows, M,
    sum_i X_i M X_i)``, the transforms read from L = ``action``.  The blocks
    are of near-equal size, at most FIT_BLOCK_BYTES of monomials (or
    FIT_BLOCK_ROWS), and never one row, since a one-row product is a gemv,
    whose sums need not match gemm's bits: each row of each array is bitwise
    what the whole stack gives.  One block is a slab of the fold as it
    comes; more are copied from the slabs into a scratch buffer."""
    multisets, slabs = sym_monomial_slabs(g.generators, r, g.pair_products)
    n, d = len(multisets), g.d
    count = -(-n // max(FIT_BLOCK_BYTES // (16 * d * d), FIT_BLOCK_ROWS))
    sizes = [n * (i + 1) // count - n * i // count for i in range(count)]

    def transformed(rows, m):
        return rows, m, (m.reshape(len(m), d * d) @ action.T).reshape(m.shape)

    def blocks():
        block = rows = None
        want, filled = sizes.pop(), 0
        for slab_rows, slab in slabs:
            if len(slab) == want == n:
                yield transformed(slab_rows, slab)
                return
            if block is None:
                block = np.empty((want, d, d), dtype=np.complex128)   # the last is the largest
                rows = np.empty(want, dtype=np.intp)
            at = 0
            while at < len(slab):
                take = min(want - filled, len(slab) - at)
                block[filled:filled + take] = slab[at:at + take]
                rows[filled:filled + take] = slab_rows[at:at + take]
                filled, at = filled + take, at + take
                if filled == want:
                    yield transformed(rows[:want], block[:want])
                    want, filled = (sizes.pop() if sizes else 0), 0

    return multisets, blocks()


def pinned_residual(g: GeneratorSet, r: int, g0: float, action: np.ndarray) -> float:
    """Worst max|T - f0 I - g0 M| over the symmetrized rank-r monomials M of
    the set ``g`` and their transforms T = sum_i X_i M X_i (read from L =
    ``action``), where g is pinned to ``g0`` and f0 = (tr T - g0 tr M)/d: the
    misfit of the identity at a known g, from one pass over the blocks."""
    worst = []
    diag = np.arange(g.d)
    for _, m, t in _monomial_blocks(g, r, action)[1]:
        f0 = (_traces(t) - g0 * _traces(m)) / g.d
        t[:, diag, diag] -= f0[:, None]   # t is a fresh product, so it takes the misfit
        t -= g0 * m
        worst.append(max_abs(t))
    return max(worst)


def find_identity(g: GeneratorSet, r: int, action: np.ndarray | None = None) -> IdentityReport:
    """Fit sum_i X_i M X_i = f_M I + g_M M for every symmetrized rank-r
    monomial M of the generators, with r capped at 3.

    The transforms are read from L = ``action``, ``generator_action(g)``
    when None; a caller fitting several ranks of one set (every rank of
    :func:`critical_values`) builds L once and passes it.  A caller that
    knows g reads its misfit from :func:`pinned_residual` and fits nothing.

    Per monomial, g_M is the least-squares slope on the traceless parts of
    M and of the transform, and f_M then matches the traces.  A monomial is
    informative when its traceless part is nonzero (squared norm above
    1e-16 of max(1, |M|^2)); any g fits the others, so they get g_M = 0, a
    NaN entry in ``g_tensor`` and no say in the spread test behind
    ``special``.

    The monomials stream through in row blocks (:func:`_monomial_blocks`),
    so no stack of all of them is formed unless it is one block.  The
    report keeps per monomial f_M, g_M and the flag, the worst misfit, and
    for a special fit the TSQR factor of the traceless parts (at most d^2 x
    d^2), which the blocks stop forming once their g_M spread past
    SPECIAL_SPREAD_TOL.
    """
    if r not in (1, 2, 3):
        raise ValueError("rank r must be 1, 2 or 3")
    if action is None:
        action = generator_action(g)
    d, k = g.d, g.k
    multisets, blocks = _monomial_blocks(g, r, action)
    n = len(multisets)
    f_m, g_m = np.empty(n), np.empty(n)
    informative = np.empty(n, dtype=bool)
    r_factor = None
    worst = []
    diag = np.arange(d)
    g_lo, g_hi = np.inf, -np.inf   # over the informative g_M so far
    for rows, m, t in blocks:
        trm, trt = _traces(m), _traces(t)
        m0 = _traceless(m, trm)
        norm0 = _inner(m0, m0)
        flags = norm0 > 1e-16 * np.maximum(1.0, _inner(m, m))   # informative
        # any g fits a monomial that is a multiple of I; pick 0 so f absorbs it
        gm = np.where(flags, _inner(m0, t) / np.where(flags, norm0, 1.0), 0.0)
        fm = (trt - gm * trm) / d
        # m is scratch when there are several blocks; one block is the fold's
        # slab, at r = 1 the set's own generators, so it is left as it is
        misfit = np.multiply(gm[:, None, None], m, out=None if len(rows) == n else m)
        misfit -= t
        misfit[:, diag, diag] += fm[:, None]
        worst.append(max_abs(misfit))
        del misfit, t
        # a TSQR step, while the fit can be special: only then is its span read
        g_lo = min(g_lo, gm.min(where=flags, initial=np.inf))
        g_hi = max(g_hi, gm.max(where=flags, initial=-np.inf))
        if g_hi - g_lo <= SPECIAL_SPREAD_TOL:
            r_factor = _tsqr_step(r_factor, m0)
        f_m[rows], g_m[rows], informative[rows] = fm, gm, flags
    g_values = g_m[informative]
    if g_values.size:
        spread = float(g_values.max() - g_values.min())
        special = spread <= SPECIAL_SPREAD_TOL
        g_scalar = float(np.mean(g_values)) if special else None
    else:
        # Every monomial is a multiple of the identity: the identity holds
        # with any scalar g, so it is special but g is not identifiable.
        special = True
        g_scalar = None
    return IdentityReport(
        rank=r,
        k=k,
        Z=g.Z,
        special=special,
        g=g_scalar,
        residual=max(worst),
        multisets=multisets,
        informative=tuple(informative.tolist()),
        _f=f_m,
        _g=np.where(informative, g_m, np.nan),
        _set=g,
        _action=action,
        _r=r_factor if special else None,
    )


# ---------------------------------------------------------------------------
# Critical error probabilities p_r = Z / (Z - g_r).

@dataclass(frozen=True)
class CriticalDecomposition:
    source: str
    Z: float
    entries: tuple

    def entry(self, rank: int) -> IdentityReport:
        for e in self.entries:
            if e.rank == rank:
                return e
        raise KeyError(f"no entry for rank {rank}")

    def to_json(self) -> dict:
        return {
            "source": self.source,
            "Z": self.Z,
            "entries": [
                {"rank": e.rank, "special": e.special, "g": e.g, "p": e.p_value,
                 "in_range": e.in_range, "verified": e.verified, "residual": e.residual}
                for e in self.entries
            ],
        }


def _row_basis(r_factor: np.ndarray, rows: int) -> np.ndarray:
    """Orthonormal rows spanning the rows of a (rows, d^2) matrix A = Q R,
    from the SVD of R, which has A's singular values and right vectors;
    singular values below max(rows, d^2) eps times the largest are round-off."""
    _, sv, vh = np.linalg.svd(r_factor, full_matrices=False)
    return vh[sv > sv[0] * max(rows, r_factor.shape[1]) * np.finfo(float).eps]


def traceless_basis(monomials: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the traceless parts of the monomials."""
    n, d, _ = monomials.shape
    flat = _traceless(monomials, _traces(monomials)).reshape(n, d * d)
    return _row_basis(np.linalg.qr(flat, mode="r"), n)


def critical_values(g: GeneratorSet, max_rank: int = 2) -> CriticalDecomposition:
    """For each rank where a special identity exists, the error probability
    at which the channel sends every I/d + (rank-r) state to I/d.

    ``verified`` is True when (1 - p) I + (p/Z) L maps an orthonormal basis
    of the traceless rank-r span, read from the fit's TSQR factor, to within
    CRITICAL_MAP_TOL = 1e-8 of zero; the channel is unital, so that is the
    map of those states to I/d.

    p_r = Z / (Z - g_r) lies in [0, 1] exactly when g_r <= 0; the
    ``in_range`` flag records the strict condition g_r < 0, so the boundary
    case g_r = 0 (p_r = 1) reports False.  Ranks without a special identity
    (or with unidentifiable g) appear with p_value None.
    """
    if not 1 <= max_rank <= 3:
        raise ValueError("max_rank must be 1, 2 or 3")
    entries = []
    action = generator_action(g)   # d^4 complex entries, built once for every rank
    # highest rank first: the largest fit runs while no other entry is alive
    for r in range(max_rank, 0, -1):
        report = find_identity(g, r, action)
        p_r = report.p_value
        if p_r is not None and 0.0 <= p_r <= 1.0:
            basis = _row_basis(report._r, len(report.multisets))
            images = (1.0 - p_r) * basis + (p_r / g.Z) * (basis @ action.T)
            report = replace(report, verified=max_abs(images) <= CRITICAL_MAP_TOL)
        entries.insert(0, report)
    return CriticalDecomposition(source=g.algebra, Z=g.Z, entries=tuple(entries))


# ---------------------------------------------------------------------------
# Output entropy and l_q norms.

def min_entropy_su_n(p: float, n: int) -> float:
    """Minimal von Neumann output entropy of the su(n) channel.

    Every pure input yields the output spectrum {1 - np/(1+n),
    np/(n^2-1) x (n-1)}, and entropy is concave, so the minimum over all
    densities is this closed form:

        -(np/(1+n)) ln(np/(n^2-1)) - (1 - np/(1+n)) ln(1 - np/(1+n)).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 0.0 <= p <= 1.0:
        raise POutOfRangeError(f"p = {p} lies outside [0, 1]")
    if p == 0.0:
        return 0.0
    a = n * p / (1.0 + n)
    small = n * p / (n * n - 1.0)
    big = 1.0 - a
    out = -a * math.log(small)
    if big > 0.0:
        out -= big * math.log(big)
    return out


def _pure_outputs(ch: KrausChannel, n_samples: int, seed: int) -> np.ndarray:
    d = ch.dim
    psis = np.empty((n_samples, d), dtype=np.complex128)
    for i in range(n_samples):
        psis[i] = random_pure_statevector(d, derived_rng(seed, i))
    rhos = np.einsum("ia,ib->iab", psis, psis.conj())
    return np.einsum("mab,ibc,mdc->iad", ch.ops, rhos, ch.ops.conj())


def sampled_min_output_entropy(ch: KrausChannel, n_samples: int = 10000, seed: int = 0) -> float:
    """Minimum output entropy over random pure inputs (an upper bound on
    the true minimum, used as an independent cross-check)."""
    outs = _pure_outputs(ch, n_samples, seed)
    ev = np.clip(np.linalg.eigvalsh(outs).real, 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(ev > 0.0, ev * np.log(np.where(ev > 0.0, ev, 1.0)), 0.0)
    return float(-(terms.sum(axis=1)).min())


def lq_norm(m, q: float) -> float:
    """(tr |m|^q)^(1/q) via the eigenvalues of a Hermitian matrix.

    With :func:`max_lq_norm` this reproduces the paper's Werner-Holevo
    statement: the spin-1 channel at p = 1 is the map :func:`werner_holevo`
    (up to a unitary change of basis), so their maximal output l_q norms
    agree."""
    if q < 1.0:
        raise ValueError("q must be >= 1")
    ev = np.abs(np.linalg.eigvalsh(as_complex_matrix(m)))
    return float((ev**q).sum() ** (1.0 / q))


def max_lq_norm(ch: KrausChannel, q: float, n_samples: int = 200, seed: int = 0) -> float:
    """Largest output l_q norm over sampled pure inputs.

    Pure states are the extreme points of the density matrices and the norm
    is convex, so the supremum is attained on them; a finite sample still
    only certifies a lower bound on that supremum.  For the spin-1 channel
    at p = 1, the Werner-Holevo map of the paper, every pure input gives
    the same output spectrum {0, 1/2, 1/2}, so any sample attains it.
    """
    if q < 1.0:
        raise ValueError("q must be >= 1")
    outs = _pure_outputs(ch, n_samples, seed)
    ev = np.abs(np.linalg.eigvalsh(outs))
    return float(((ev**q).sum(axis=1) ** (1.0 / q)).max())


def werner_holevo(rho) -> DensityMatrix:
    """rho -> (tr(rho) I - rho^T) / (d - 1)."""
    rho = as_density(rho)
    d = rho.dim
    if d < 2:
        raise ValueError("dimension must be >= 2")
    m = (np.trace(rho.matrix) * np.eye(d) - rho.matrix.T) / (d - 1)
    return DensityMatrix(m)
