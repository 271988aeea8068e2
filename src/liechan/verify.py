"""Identity suites, one per algebra family, run on the generator set the
caller built (:func:`run_suite`).  Invariants that the library enforces on
construction are reported through the same repgen functions.  Each su, spin
and g2 suite builds L = ``channel.generator_action(g)`` once and reads every
product identity from it as a ``channel.find_identity`` fit with g pinned."""

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
    worst = 0.0
    for i in range(5):
        rng = mc.derived_rng(seed, i)
        p = rng.uniform(0.0, 1.0)
        v, w = _random_unit_trace_vw(g, rng)
        v2, w2 = ch.spin_channel_vw(g, p, v, w)
        try:
            channel = ch.build_channel(g, p)
        except ch.NormalizationError as exc:
            worst = max(worst, exc.deviation)
            continue
        direct = ch.apply_matrix(channel, bl.rho_vw(g, v, w))
        worst = max(worst, mc.max_abs(direct - bl.rho_vw(g, v2, w2)))
    checks.append(_check("vw_closed_form", worst, 1e-8))
    info = {"Z": lam, "N": g.N, "critical_p_rank2": lam / 3.0}
    if g.d == 3:
        worst = 0.0
        for i in range(3):
            rng = mc.derived_rng(seed, 50 + i)
            p = rng.uniform(0.0, 1.0)
            _, w = _random_unit_trace_vw(g, rng)
            rho = bl.rho_vw(g, np.zeros(3), w)
            try:
                channel = ch.build_channel(g, p)
            except ch.NormalizationError as exc:
                worst = max(worst, exc.deviation)
                continue
            acc = rho.copy()
            for nfold in range(1, 7):
                acc = ch.apply_matrix(channel, acc)
                wn = ch.iterate_w_polynomial(p, nfold).apply_to(w)
                worst = max(worst, mc.max_abs(acc - bl.rho_vw(g, np.zeros(3), wn)))
        checks.append(_check("iteration_formula", worst, 1e-9))
    least = bl.spin_vw_pure_weight(g.d - 1)
    checks.append(_check("vw_pure_weight_witness", abs(bl.spin_vw_purity_search(g) - least), 1e-12))
    info["vw_pure_weight_min"] = least
    return checks, info


def _random_unit_trace_vw(g: rg.GeneratorSet, rng: np.random.Generator):
    d = g.d
    base = np.eye(3) * (1.0 / (d * g.Z))
    dw = rng.normal(size=(3, 3)) * 0.2
    dw = (dw + dw.T) / 2.0
    dw -= np.eye(3) * np.trace(dw) / 3.0
    v = rng.normal(size=3) * 0.2
    w = base + dw
    rho = bl.rho_vw(g, v, w)
    lo = float(np.linalg.eigvalsh(rho).min())
    if lo < 1e-3 / d:
        shrink = 0.5 * (1.0 / d) / max(1.0 / d - lo, 1e-12)
        v = shrink * v
        w = base + shrink * dw
    return v, w


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
    worst = 0.0
    for i in range(5):
        rng = mc.derived_rng(seed, i)
        p = rng.uniform(0.0, 1.0)
        v = rng.normal(size=14) * 0.2
        try:
            channel = ch.build_channel(g, p)
        except ch.NormalizationError as exc:
            worst = max(worst, exc.deviation)
            continue
        out = ch.apply_matrix(channel, bl.bloch_rho(g, v))
        worst = max(worst, mc.max_abs(out - bl.bloch_rho(g, (1.0 - p) * v)))
    checks.append(_check("bloch_scaling", worst, 1e-9))
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
    x = g.generators
    pairs = x[:, None] @ x
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
