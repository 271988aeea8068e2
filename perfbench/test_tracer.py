"""Tests of the span tracer against a stub package (no liechan code).

Run with ``python -m pytest perfbench/test_tracer.py``.
"""

import sys
import types

import pytest

from tracer import Tracer

CORE = '''
def leaf(clock):
    clock.now += 1.0
    return "leaf"

def inner(clock):
    clock.now += 2.0
    return leaf(clock)

class Thing:
    def check(self, clock):
        clock.now += 8.0
        return leaf(clock)
'''

USER = '''
from stubpkg.core import inner as helper, leaf, Thing

def outer(clock):
    clock.now += 4.0
    helper(clock)
    return leaf(clock)

def boom(clock):
    clock.now += 16.0
    raise RuntimeError("boom")
'''


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def stub(monkeypatch):
    modules = {}
    for name, source in (("stubpkg", ""), ("stubpkg.core", CORE), ("stubpkg.user", USER)):
        mod = types.ModuleType(name)
        monkeypatch.setitem(sys.modules, name, mod)
        exec(source, mod.__dict__)
        modules[name] = mod
    return modules["stubpkg.core"], modules["stubpkg.user"]


def test_patch_covers_every_imported_name_and_unpatch_restores(stub):
    core, user = stub
    leaf, inner, check = core.leaf, core.inner, core.Thing.check
    tracer = Tracer(clock=FakeClock())
    assert tracer.patch("stubpkg", "stubpkg.core", "leaf", "core.leaf") == 2
    assert tracer.patch("stubpkg", "stubpkg.core", "inner", "core.inner") == 2
    assert tracer.patch("stubpkg", "stubpkg.core", "Thing.check", "core.check") == 1
    assert user.leaf is core.leaf is not leaf
    assert user.helper is core.inner is not inner
    tracer.unpatch()
    assert core.leaf is leaf and user.leaf is leaf
    assert core.inner is inner and user.helper is inner
    assert core.Thing.check is check


def test_spans_nest_and_self_time_excludes_children(stub):
    core, user = stub
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.patch("stubpkg", "stubpkg.core", "leaf", "leaf", describe=lambda a, k: ("x",))
    tracer.patch("stubpkg", "stubpkg.core", "inner", "inner")
    tracer.patch("stubpkg", "stubpkg.core", "Thing.check", "check")
    tracer.patch("stubpkg", "stubpkg.user", "outer", "outer")
    tracer.request = 7
    assert user.outer(clock) == "leaf"
    user.Thing().check(clock)
    tracer.unpatch()

    names = [s.name for s in tracer.spans]
    assert names == ["outer", "inner", "leaf", "leaf", "check", "leaf"]
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0, None, 4]
    assert all(s.request == 7 for s in tracer.spans)
    assert tracer.spans[2].info == ("x",)
    # outer: 4 own + inner (2 own + leaf 1) + leaf 1 = 8; check: 8 own + leaf 1
    assert [(s.start, s.end) for s in tracer.spans] == [
        (0.0, 8.0), (4.0, 7.0), (6.0, 7.0), (7.0, 8.0), (8.0, 17.0), (16.0, 17.0),
    ]
    assert tracer.self_times() == [4.0, 2.0, 1.0, 1.0, 8.0, 1.0]
    stats = tracer.stats()
    assert (stats["leaf"].calls, stats["leaf"].total_s, stats["leaf"].self_s) == (3, 3.0, 3.0)
    assert (stats["outer"].total_s, stats["outer"].self_s) == (8.0, 4.0)
    assert (stats["inner"].total_s, stats["inner"].self_s) == (3.0, 2.0)
    assert (stats["check"].total_s, stats["check"].self_s) == (9.0, 8.0)


def test_span_closes_when_the_call_raises(stub):
    _, user = stub
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.patch("stubpkg", "stubpkg.user", "boom", "boom")
    with pytest.raises(RuntimeError):
        tracer.call("outer", user.boom, clock)
    tracer.unpatch()
    assert [(s.name, s.parent, s.start, s.end) for s in tracer.spans] == [
        ("outer", None, 0.0, 16.0), ("boom", 0, 0.0, 16.0),
    ]
    assert tracer.self_times() == [0.0, 16.0]
