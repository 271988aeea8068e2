"""The sets' product tables (``GeneratorSet.pair_monomials`` and
``GeneratorSet.pair_products``): the (v, w) readers that use them give the
bytes of the per-call refold, each set builds its own once, every set is read
for its pair products and only spin sets for their pair monomials."""

import copy
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

from liechan import bloch as bl
from liechan import channel as ch
from liechan import cli
from liechan import matcore as mc
from liechan import repgen as rg
from tests.conftest import spin

TWO_S = list(range(2, 9)) + [15, 63]
TABLES = ("pair_monomials", "pair_products")


# The readers as they were written before the tables: every call refolds the
# rank-2 monomials with sym_monomials and forms the products X_a X_b.

def refold_extract_vw(rho, g):
    m = mc.as_complex_matrix(rho)
    d = g.d
    lam = g.Z
    v = (3.0 / (d * lam)) * np.trace(m @ g.generators, axis1=1, axis2=2).real
    trw = 3.0 / (d * lam) * np.trace(m).real
    pairs, products = mc.sym_monomials(g.generators, 2)
    vals = (30.0 / (lam * d * (d * d - 4.0))) * np.trace(m @ products, axis1=1, axis2=2).real
    diagonal = np.array([j == k for j, k in pairs])
    vals[diagonal] -= (2.0 * lam + 1.0) / (d * d - 4.0) * trw
    w = mc.symmetric_tensor(pairs, vals, 3)
    recon = np.einsum("a,aij->ij", v, g.generators)
    resid = mc.max_abs(m - recon - np.einsum("p,pij->ij", (2.0 - diagonal) * vals, products))
    if resid > bl.SPAN_TOL:
        raise bl.SpanDeficientError(
            f"rho lies outside the span of {{J_a, J_(a J_b)}} (residual {resid:.3e})"
        )
    return v, w


def refold_rho_vw(g, v, w):
    v, w = ch.spin_vw_input(g, v, w)
    gens = g.generators
    acc = np.zeros(gens.shape[1:], dtype=np.complex128)
    for va, x in zip(v, gens):
        acc += va * x
    prods = gens[:, None] @ gens
    acc += np.einsum("ab,abik->ik", (w + w.T) / 2.0, prods)
    return acc


def refold_purity_search(g):
    d = g.d
    basis = ch.traceless_basis(np.concatenate([mc.sym_monomials(g.generators, r)[1] for r in (1, 2)]))
    nj = np.einsum("a,aij->ij", np.sqrt([1.0, 2.0, 3.0]) / math.sqrt(6.0), g.generators)
    psi = np.linalg.svd(nj - (d - 1) / 2 * np.eye(d))[2][-1].conj()
    rest = np.outer(psi, psi.conj()).ravel() / np.vdot(psi, psi).real
    rest -= basis.T @ (basis.conj() @ rest)
    rest[::d + 1] -= 1.0 / d
    return float(np.vdot(rest, rest).real)


def unit_trace_vw(g, rng):
    w = rng.normal(size=(3, 3)) * 0.2
    w = (w + w.T) / 2.0
    w += np.eye(3) * (3.0 / (g.d * g.Z) - np.trace(w)) / 3.0
    return rng.normal(size=3) * 0.2, w


def span_inputs(g, rng):
    """Matrices inside the (v, w) span, then outside it: a random density
    matrix (inside at d = 3, where the span is all of gl(3)'s Hermitian part)
    and a state made non-Hermitian in one entry."""
    inside = [refold_rho_vw(g, *unit_trace_vw(g, rng)) for _ in range(3)]
    a = rng.normal(size=(g.d, g.d)) + 1j * rng.normal(size=(g.d, g.d))
    density = a @ a.conj().T
    density /= np.trace(density).real
    skewed = inside[0].copy()
    skewed[0, -1] += 1e-3
    return inside + [density, skewed]


def outcome(fn, *args):
    """The result's bytes, or the raised error's type and message."""
    try:
        return [np.asarray(x).tobytes() for x in fn(*args)]
    except bl.SpanDeficientError as exc:
        return ("SpanDeficientError", str(exc))


@pytest.mark.parametrize("two_s", TWO_S)
def test_extract_vw_matches_the_refold_bitwise(two_s):
    g = spin(two_s)
    rng = np.random.default_rng([two_s, 1])
    raised = 0
    for rho in span_inputs(g, rng):
        expected = outcome(refold_extract_vw, rho, g)
        assert outcome(bl.extract_vw, rho, g) == expected
        raised += isinstance(expected, tuple)
    assert raised == (1 if two_s == 2 else 2)   # the inputs reach both outcomes


@pytest.mark.parametrize("two_s", TWO_S)
def test_rho_vw_matches_the_refold_bitwise(two_s):
    g = spin(two_s)
    rng = np.random.default_rng([two_s, 2])
    for _ in range(4):
        v, w = unit_trace_vw(g, rng)
        assert bl.rho_vw(g, v, w).tobytes() == refold_rho_vw(g, v, w).tobytes()


@pytest.mark.parametrize("two_s", TWO_S)
def test_spin_vw_purity_search_matches_the_refold_bitwise(two_s):
    g = spin(two_s)
    assert np.float64(bl.spin_vw_purity_search(g)).tobytes() == np.float64(refold_purity_search(g)).tobytes()


def write_inputs(tmp_path, g, count):
    """``count`` apply inputs for the spin set g, cycling raw, {v} and {v, w};
    each {v, w} pulled towards I/d until its least eigenvalue is 0.5/d."""
    rng = np.random.default_rng(g.d)
    base = np.eye(3) / (g.d * g.Z)
    paths = []
    for i in range(count):
        if i % 3 == 0:
            a = rng.normal(size=(g.d, g.d)) + 1j * rng.normal(size=(g.d, g.d))
            obj = mc.matrix_to_json(a @ a.conj().T / np.trace(a @ a.conj().T).real)
        elif i % 3 == 1:
            obj = {"v": (rng.normal(size=3) * 0.1 / g.d).tolist()}
        else:
            v, w = unit_trace_vw(g, rng)
            lo = np.linalg.eigvalsh(refold_rho_vw(g, v, w))[0]
            t = min(1.0, 0.5 / (1.0 - g.d * lo))
            obj = {"v": (t * v).tolist(), "w": (base + t * (w - base)).tolist()}
        paths.append(tmp_path / f"rho-{g.d}-{i}.json")
        paths[-1].write_text(json.dumps(obj))
    return paths


def test_each_spin_set_folds_its_pair_monomials_once(tmp_path, monkeypatch, capsys, sym_pair_calls):
    monkeypatch.setattr(cli, "_GENSETS", {})
    reports = []
    for two_s in (2, 7):
        for path in write_inputs(tmp_path, rg.spin_rep(two_s), 10):
            out = tmp_path / "out.json"
            argv = ["apply", "--algebra", "spin", "--two-s", str(two_s), "--p", "0.25",
                    "--rho", str(path), "--out", str(out)]
            assert cli.main(argv) == 0
            reports.append(json.loads(out.read_text()))
    assert cli.main(["verify", "--algebra", "spin", "--two-s", "3", "--out", str(tmp_path / "v.json")]) == 0
    assert capsys.readouterr().err == ""
    assert sorted(sym_pair_calls) == [3, 4, 8]
    assert all(r["vw_out"] is not None for r in reports[:10])   # d = 3: every input in the span
    assert any(r["vw_out"] is None for r in reports[10:])


@pytest.mark.parametrize("name", TABLES)
def test_tables_are_read_only(name):
    table = getattr(spin(3), name)
    array = table[1] if name == "pair_monomials" else table
    with pytest.raises(ValueError):
        array[0, 0, 0] = 1.0
    assert not array.flags.writeable


def test_a_second_set_builds_its_own_tables():
    first = rg.build_algebra("spin", two_s=4)
    second = rg.build_algebra("spin", two_s=4)
    for name in TABLES:
        getattr(first, name)
        assert name not in vars(second)
        assert getattr(first, name) is getattr(first, name)   # kept with the set
    assert second.pair_products is not first.pair_products
    assert second.pair_monomials[1] is not first.pair_monomials[1]
    assert second.pair_products.tobytes() == first.pair_products.tobytes()
    assert second.pair_monomials[1].tobytes() == first.pair_monomials[1].tobytes()


def test_each_set_builds_its_pair_products_once(tmp_path, monkeypatch):
    # every reader of X_a X_b takes the set's pair_products, so one process
    # that runs critical and verify on a set (and apply on spin-3/2, whose
    # reports read pair_monomials) forms its table once; the raw and {v}
    # applies on the other sets and every bloch-scan form none.  su(3) scans
    # read the closed form's own cached tensors, built here beforehand.
    bl._su3_tensors()
    calls = []
    original = mc.pair_table

    def counted(stack):
        calls.append(stack.shape[:2])   # (k, d)
        return original(stack)

    for module in (mc, rg):
        monkeypatch.setattr(module, "pair_table", counted)
    monkeypatch.setattr(cli, "_GENSETS", {})
    sizes = {("su", 3): ["--n", "3"], ("su", 4): ["--n", "4"], ("g2", None): [],
             ("clifford", None): [], ("spin", 3): ["--two-s", "3"]}
    out = str(tmp_path / "out")
    heads = {key: ["--algebra", key[0], *size, "--out", out] for key, size in sizes.items()}
    for (algebra, size), head in heads.items():
        g = rg.build_algebra(algebra, n=size, two_s=size)
        for i, obj in enumerate([mc.matrix_to_json(np.eye(g.d) / g.d), {"v": [0.01] * g.k}]):
            rho = tmp_path / f"{algebra}-{i}.json"
            rho.write_text(json.dumps(obj))
            if algebra != "spin":
                assert cli.main(["apply", *head, "--p", "0.3", "--rho", str(rho)]) == 0
        assert cli.main(["bloch-scan", *head, "--samples", "20"]) == 0
    assert calls == []
    vw = tmp_path / "vw.json"
    spin3_2 = rg.spin_rep(3)
    vw.write_text(json.dumps({"v": [0.01] * 3, "w": (np.eye(3) / (spin3_2.d * spin3_2.Z)).tolist()}))
    for path in (vw, tmp_path / "spin-0.json", tmp_path / "spin-1.json"):
        assert cli.main(["apply", *heads["spin", 3], "--p", "0.3", "--rho", str(path)]) == 0
    for head in heads.values():
        assert cli.main(["critical", *head, "--max-rank", "3"]) == 0
        assert cli.main(["verify", *head]) == 0
    assert sorted(calls) == [(3, 4), (4, 4), (8, 3), (14, 7), (15, 4)]
    for (algebra, *_), memo in cli._GENSETS.items():
        assert "pair_products" in vars(memo.genset)
        assert ("pair_monomials" in vars(memo.genset)) == (algebra == "spin"), algebra


def test_spin_tables_hold_fifteen_matrices():
    # numpy traces its data buffers in a tracemalloc domain of their own: the
    # tables' entries are exactly the 6 + 9 matrices; the rest is the
    # multisets and a few hundred bytes of array and tuple objects
    g = rg.spin_rep(63)
    entries = 15 * g.d * g.d * 16
    numpy_domain = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(numpy_domain)
        total = tracemalloc.get_traced_memory()[0]
        multisets, _ = g.pair_monomials
        g.pair_products
        total = tracemalloc.get_traced_memory()[0] - total
        after = tracemalloc.take_snapshot().filter_traces(numpy_domain)
    finally:
        tracemalloc.stop()
    data = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    multiset_bytes = sys.getsizeof(multisets) + sum(map(sys.getsizeof, multisets))
    assert data == entries
    assert total <= entries + multiset_bytes + 1024


@pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy], ids=["copy", "deepcopy"])
def test_a_copy_with_replaced_generators_reads_its_own_tables(copier):
    g = rg.spin_rep(3)
    g.nonzero_terms, g.pair_monomials, g.pair_products   # every table built on the original
    bad = copier(g)
    assert not {"nonzero_terms", *TABLES} & set(vars(bad))
    object.__setattr__(bad, "generators", np.concatenate([1.01 * g.generators[:1], g.generators[1:]]))
    rng = np.random.default_rng(12)
    for _ in range(5):
        v, w = unit_trace_vw(g, rng)
        dense = np.eye(bad.d, dtype=np.complex128)
        for va, x in zip(v, bad.generators):
            dense = dense + va * x
        assert bl.bloch_rho(bad, v).tobytes() == (dense / bad.d).tobytes()
        rho = refold_rho_vw(bad, v, w)
        assert bl.rho_vw(bad, v, w).tobytes() == rho.tobytes()
        for m in (rho, bl.rho_vw(g, v, w)):
            assert outcome(bl.extract_vw, m, bad) == outcome(refold_extract_vw, m, bad)
