"""Span tracing from outside the program.

The tracer swaps each traced function for a timing wrapper at every module
attribute that holds it, so calls between layers (for example
`roleflow.runtime.enabled_bindings` and `roleflow.cpn.enabled_bindings`)
pass through one wrapper. Spans (name, start, end, parent) stay in memory;
leaving the `with` block puts every original attribute back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Optional


class Tracer:
    """Records a span per call of each target while installed.

    `targets` is a list of (span name, owner, attribute, observe): `owner`
    is the module or class whose attribute is wrapped, and every other
    `roleflow` module attribute bound to the same function is wrapped too.
    `observe(tracer, result)`, when given, updates `tracer.counters` from
    the call's result.
    """

    def __init__(self, targets):
        self.targets = targets
        self.spans: list = []  # (name, start, end, parent index), in start order
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def reset(self):
        self.spans = []
        self.counters = defaultdict(float)

    def _wrap(self, name: str, fn: Callable, observe: Optional[Callable]):
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans  # looked up per call: reset() rebinds it
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if observe is not None:
                observe(self, result)
            return result

        return traced

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "roleflow"]
        try:
            for name, owner, attr, observe in self.targets:
                original = owner.__dict__[attr]
                wrapper = self._wrap(name, original, observe)
                holders = [owner] + [m for m in modules if m is not owner]
                for holder in holders:
                    if holder.__dict__.get(attr) is original:
                        self._saved.append((holder, attr, original))
                        setattr(holder, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds `s`, and `self_s` (minus child spans)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (name, start, end, _), inner in zip(self.spans, child):
            st = out[name]
            st["calls"] += 1
            st["s"] += end - start
            st["self_s"] += end - start - inner
        return out

    def write(self, path):
        """Dump the spans as tab-separated lines, span i on data line i.

        Columns: parent index (-1 for none), name, start and end in
        nanoseconds after the first span's start.
        """
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("parent\tname\tstart_ns\tend_ns\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{parent}\t{name}\t{(start - origin) * 1e9:.0f}\t{(end - origin) * 1e9:.0f}\n")
