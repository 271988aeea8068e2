"""In-memory span tracer that times calls into a package from outside it.

A span records its name, start, end, parent span and request id, plus an
optional ``info`` tuple taken from the call's arguments.  Spans are kept in a
list while the benchmark runs and written out at the end.

``patch`` wraps a function in place and puts the wrapper into *every* loaded
module of the package that holds the original under any name: a module that
did ``from .matcore import sym_product`` has its own reference, which
patching ``matcore`` alone would miss.  ``unpatch`` restores every reference.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None   # index into Tracer.spans
    request: int | None
    info: tuple | None = None


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.request: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str, info: tuple | None) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.clock(), 0.0, parent, self.request, info)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        span = self._open(name, None)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def wrap(self, fn, name: str, describe=None):
        """A wrapper of ``fn`` recording one span per call; ``describe``, if
        given, maps the call's (args, kwargs) to the span's ``info``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, describe(args, kwargs) if describe else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def patch(self, package: str, module: str, attr: str, name: str, describe=None) -> int:
        """Wrap ``module.attr`` (``attr`` may be ``Class.method``) and replace
        every reference to the original held by a loaded module of
        ``package``.  Returns the number of references replaced."""
        owner = sys.modules[module]
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        wrapper = self.wrap(original, name, describe)
        if path:
            # A method: every caller looks it up on the class.
            self._replace(owner, leaf, original, wrapper)
            return 1
        replaced = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, key, original, wrapper)
                    replaced += 1
        return replaced

    def _replace(self, owner, key: str, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def unpatch(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children.
        Spans on one thread nest, so children never overlap."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def stats(self) -> dict[str, SpanStats]:
        """Calls, total time and self time per span name."""
        out: dict[str, SpanStats] = {}
        for span, own in zip(self.spans, self.self_times()):
            st = out.setdefault(span.name, SpanStats())
            st.calls += 1
            st.total_s += span.end - span.start
            st.self_s += own
        return out
