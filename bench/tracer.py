"""Spans around calls into spindemon, recorded from outside the package.

A span wraps one module attribute that the caller looks up at call time
(for example ``spindemon.harness.gillespie_step``, which the shot engine
finds in the harness module's globals), so replacing the attribute routes
every call through the span without changing the package.  Spans nest on
a stack: a span's self time is its duration minus the time covered by the
spans it encloses.  Only aggregates (calls, total, self time) are kept in
memory, because a traced round opens hundreds of thousands of spans.

Spans opened in pool worker processes stay in those processes and are not
counted.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self._stack: list[float] = []  # time covered by children of each open span
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``module.attr`` by a span named ``name``.

        ``before(args, kwargs)`` runs before the call and ``after(args,
        kwargs, result)`` after it, both outside the timed interval.
        """
        inner = getattr(module, attr)
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            stack.append(0.0)
            start = clock()
            try:
                result = inner(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(module, attr, span)
        self._patched.append((module, attr, inner))

    def count(self, module, attr: str, on_result) -> None:
        """Replace ``module.attr`` by a pass-through that reports each result."""
        inner = getattr(module, attr)

        def counted(*args, **kwargs):
            result = inner(*args, **kwargs)
            on_result(args, kwargs, result)
            return result

        setattr(module, attr, counted)
        self._patched.append((module, attr, inner))

    def restore(self) -> None:
        for module, attr, inner in reversed(self._patched):
            setattr(module, attr, inner)
        self._patched.clear()
