"""Shared fixtures: generator sets are expensive enough to cache per session."""

from functools import lru_cache

import numpy as np
import pytest

from liechan import matcore, repgen


@lru_cache(maxsize=None)
def su(n):
    return repgen.gell_mann(n)


@lru_cache(maxsize=None)
def spin(two_s):
    return repgen.spin_rep(two_s)


@lru_cache(maxsize=None)
def g2():
    return repgen.g2_rep()


@lru_cache(maxsize=None)
def clifford():
    g = repgen.clifford_weyl()
    return g, repgen.clifford_basis(g)


@lru_cache(maxsize=None)
def su_tensors(n):
    return repgen.structure_tensors(su(n))


def maximally_mixed(d):
    """The density matrix I/d."""
    return matcore.DensityMatrix(np.eye(d) / d)


@pytest.fixture
def spin_rep_calls(monkeypatch):
    """The two_s of every repgen.spin_rep call made during the test (also
    where a module imported the name)."""
    from liechan import bloch

    calls = []
    original = repgen.spin_rep

    def counted(two_s):
        calls.append(two_s)
        return original(two_s)

    monkeypatch.setattr(repgen, "spin_rep", counted)
    monkeypatch.setattr(bloch, "spin_rep", counted, raising=False)
    return calls


@pytest.fixture
def sym_pair_calls(monkeypatch):
    """The dimension d of every rank-2 matcore.sym_monomials call made during
    the test (also where a module imported the name)."""
    from liechan import bloch

    calls = []
    original = matcore.sym_monomials

    def counted(mats, r, products=None):
        multisets, stack = original(mats, r, products)
        if r == 2:
            calls.append(stack.shape[-1])
        return multisets, stack

    for module in (matcore, repgen, bloch):
        monkeypatch.setattr(module, "sym_monomials", counted)
    return calls


@pytest.fixture
def reps():
    """Accessor bundle so tests can grab cached representations."""
    return {
        "su": su,
        "spin": spin,
        "g2": g2,
        "clifford": clifford,
        "su_tensors": su_tensors,
    }
