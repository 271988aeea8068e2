"""Identity suites, one per algebra family, run on the generator set the
caller built (:func:`run_suite`).  Invariants that the library enforces on
construction are reported through the same repgen functions.  Each su, spin
and g2 suite builds L = ``channel.generator_action(g)`` once and reads every
product identity from it as a ``channel.find_identity`` fit with g pinned.

The sampled checks draw each sample from its own ``derived_rng(seed, i)``
stream.  The spin and g2 checks draw every sample first and evaluate the
check as one stack: the states, the channels at every drawn p
(``channel.build_channels``, ``channel.apply_matrices``) and the closed
form.  Each row is bitwise what one sample at a time gives, so the
residuals are the per-sample loop's."""

from __future__ import annotations

import numpy as np

from . import bloch as bl
from . import channel as ch
from . import matcore as mc
from . import repgen as rg


def _check(name: str, residual: float, tol: float) -> dict:
    return {"name": name, "residual": float(residual), "tolerance": tol, "pass": bool(residual <= tol)}


def _su(g: rg.GeneratorSet) -> tuple[list, dict]:
    """The depolarizing claims as misfits E of L X_a = f_a I + g X_a with g
    pinned to the closed form.  L I = Z I (the constructor's Casimir check),
    so for rho = I/d + sum c_a X_a the error against the target is (p/Z)
    sum_a c_a E(X_a), and sum c_a^2 <= (1 - 1/n)/2 bounds every entry by
    sqrt(n/(2(n + 1)))/2 p < 0.354 p times the residual, for all rho and p."""
    n = g.d
    checks = [_check(*row) for row in rg.structure_tensors(g).residuals]
    rank1 = ch.find_identity(g, 1, ch.generator_action(g))
    checks.append(_check("depolarizing_factor", rank1.residual_with(g.Z * ch.su_n_factor(1.0, n)), 1e-9))
    pc = ch.su_n_critical(n)
    checks.append(_check("critical_map_to_uniform", rank1.residual_with(g.Z - g.Z / pc), 1e-9))
    return checks, {"Z": g.Z, "N": g.N, "critical_p": pc}


def _spin(g: rg.GeneratorSet, seed: int) -> tuple[list, dict]:
    lam = g.Z
    j = g.generators
    worst = max(
        mc.max_abs(mc.commutator(j[a], j[b]) - 1j * j[c])
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    )
    checks = [_check("commutation", worst, 1e-10)]
    action = ch.generator_action(g)   # one L for both ranks
    for r, name, g_r in ((1, "triple_product_identity", lam - 1.0),
                         (2, "quadruple_product_identity", lam - 3.0)):
        checks.append(_check(name, ch.find_identity(g, r, action).residual_with(g_r), 1e-9))
    # a draw whose Kraus family is not normalized (a faulty set) has no
    # channel; its normalization deviation stands in for the misfit, as in
    # the g2 suite's bloch_scaling, and the suite goes on
    ps, v, w, rho = _random_unit_trace_vw(g, seed, range(5))
    v2, w2 = ch.spin_channel_vw(g, ps, v, w)
    channels = ch.build_channels(g, ps)
    misfits = _row_max_abs(ch.apply_matrices(channels, rho) - bl.rho_vw(g, v2, w2))
    checks.append(_check("vw_closed_form", _worst(channels, misfits), 1e-8))
    info = {"Z": lam, "N": g.N, "critical_p_rank2": lam / 3.0}
    if g.d == 3:
        ps, _, w, _ = _random_unit_trace_vw(g, seed, range(50, 53))
        zeros = np.zeros((len(ps), 3))
        channels = ch.build_channels(g, ps)
        acc, misfits = bl.rho_vw(g, zeros, w), 0.0
        for nfold in range(1, 7):
            acc = ch.apply_matrices(channels, acc)
            wn = ch.iterate_w_polynomial(ps, nfold).apply_to(w)
            misfits = np.maximum(misfits, _row_max_abs(acc - bl.rho_vw(g, zeros, wn)))
        checks.append(_check("iteration_formula", _worst(channels, misfits), 1e-9))
    least = bl.spin_vw_pure_weight(g.d - 1)
    checks.append(_check("vw_pure_weight_witness", abs(bl.spin_vw_purity_search(g) - least), 1e-12))
    info["vw_pure_weight_min"] = least
    return checks, info


def _row_max_abs(stack: np.ndarray) -> np.ndarray:
    """mc.max_abs of each matrix of an (n, d, d) stack."""
    return np.abs(stack).max(axis=(1, 2))


def _worst(channels: ch.KrausStack, misfits: np.ndarray) -> float:
    """The largest misfit over the draws whose Kraus family is normalized,
    and the largest deviation over those whose family is not, as the
    per-draw loop ``max(worst, ...)`` from 0.0 gives them."""
    faulty = channels.deviations > ch.NORMALIZATION_TOL
    return max(0.0, *np.where(faulty, channels.deviations, misfits).tolist())


def _random_unit_trace_vw(g: rg.GeneratorSet, seed: int, indices) -> tuple:
    """(p, v, w, rho_vw(v, w)) stacks, row i drawn from derived_rng(seed,
    indices[i]): p, then the 3 x 3 and the 3 normals; rows where rho_vw
    has an eigenvalue below 1e-3/d are shrunk toward I/d."""
    d = g.d
    rngs = [mc.derived_rng(seed, i) for i in indices]
    ps, dw, v = (np.array(draw) for draw in zip(*[
        (r.uniform(0.0, 1.0), r.normal(size=(3, 3)), r.normal(size=3)) for r in rngs]))
    base = np.eye(3) * (1.0 / (d * g.Z))
    dw = dw * 0.2
    dw = (dw + dw.transpose(0, 2, 1)) / 2.0
    dw -= np.eye(3) * np.trace(dw, axis1=1, axis2=2)[:, None, None] / 3.0
    v = v * 0.2
    w = base + dw
    rho = bl.rho_vw(g, v, w)
    lo = np.linalg.eigvalsh(rho).min(axis=1)
    low = np.flatnonzero(lo < 1e-3 / d)
    if len(low):
        shrink = 0.5 * (1.0 / d) / np.maximum(1.0 / d - lo[low], 1e-12)
        v[low] = shrink[:, None] * v[low]
        w[low] = base + shrink[:, None, None] * dw[low]
        rho[low] = bl.rho_vw(g, v[low], w[low])
    return ps, v, w, rho


def _g2(g: rg.GeneratorSet, seed: int) -> tuple[list, dict]:
    checks = [
        _check("casimir_identity", g.residuals["casimir_deviation"], 1e-9),
        _check("trace_orthonormality", g.residuals["trace_form_deviation"], 1e-9),
    ]
    # L X_b = 0, as the fitted f_b = tr(L X_b)/d = Z tr(X_b)/d vanishes
    cubic = ch.find_identity(g, 1, ch.generator_action(g)).residual_with(0.0)
    checks.append(_check("cubic_identity", cubic, 1e-12))
    # a draw whose Kraus family is not normalized (a faulty set) has no
    # channel; its normalization deviation stands in for the misfit, so the
    # check fails and the trace-form checks below still run
    rngs = [mc.derived_rng(seed, i) for i in range(5)]
    ps, v = (np.array(draw) for draw in zip(*[(r.uniform(0.0, 1.0), r.normal(size=14)) for r in rngs]))
    v = v * 0.2
    channels = ch.build_channels(g, ps)
    out = ch.apply_matrices(channels, bl.bloch_rho(g, v))
    misfits = _row_max_abs(out - bl.bloch_rho(g, (1.0 - ps)[:, None] * v))
    checks.append(_check("bloch_scaling", _worst(channels, misfits), 1e-9))
    try:
        depolarizing = ch.detect_depolarizing(ch.build_channel(g, 0.5))
    except ch.NormalizationError:   # no channel, so none that depolarizes
        depolarizing = None
    forms = bl.g2_trace_forms(g)
    checks.append(_check("odd_trace_powers", forms.odd, 1e-8))
    checks.append(_check("quadratic_trace", forms.quadratic, 1e-9))
    checks.append(_check("quartic_trace_ratio_one_sixteenth", forms.quartic, 1e-8))
    info = {
        "Z": g.Z,
        "N": g.N,
        "radius_bounds_v_squared": [b.v_squared_bound for b in forms.radius_bounds()],
        "depolarizing_on_full_space": depolarizing,
    }
    return checks, info


def _clifford(g: rg.GeneratorSet, seed: int) -> tuple[list, dict]:
    # {X_a, X_b} = 2 delta_ab I on the pair table covers every (x, y) by bilinearity
    pairs = g.pair_products
    anti = pairs + pairs.transpose(1, 0, 2, 3) - 2.0 * np.multiply.outer(np.eye(g.k), np.eye(g.d))
    checks = [_check("anticommutation", mc.max_abs(anti), 1e-10)]
    checks.append(_check("basis_rank_16", float(16 - rg.basis_rank(rg.clifford_basis(g))), 0.0))
    # |tr ch(rho) - 1| = |tr((sum K^dag K - I) rho)| <= the entry sum of
    # |sum K^dag K - I| for every density rho
    worst = 0.0
    for i in range(5):
        rng = mc.derived_rng(seed, 100 + i)
        nvec = int(rng.integers(1, 5))
        ops = ch.clifford_vector_channel(g, [rng.normal(size=4) for _ in range(nvec)]).ops
        worst = max(worst, float(np.abs(sum(k.conj().T @ k for k in ops) - np.eye(4)).sum()))
    checks.append(_check("vector_channel_trace_preserving", worst, 1e-10))
    return checks, {"Z": g.Z, "N": g.N}


_SUITES = {
    rg.SU_N_DEFINING: lambda g, seed: _su(g),
    rg.SU2_SPIN: _spin,
    rg.G2_FUNDAMENTAL: _g2,
    rg.CLIFFORD_WEYL: _clifford,
}


def run_suite(g: rg.GeneratorSet, seed: int = 0) -> tuple[list, dict]:
    """``(checks, info)`` of the identity suite of the set ``g``, chosen by
    ``g.algebra``; ``seed`` draws the sampled checks' inputs.  A set with
    no suite (``custom``) raises ValueError."""
    if g.algebra not in _SUITES:
        raise ValueError(f"no identity suite for algebra {g.algebra!r}")
    return _SUITES[g.algebra](g, seed)
