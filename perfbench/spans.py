"""In-memory spans around heq's layer boundaries, for the traced run.

Tracer.installed() replaces the public functions the pipeline and the
enumeration oracle call, as heq.pipeline and heq.enumeration bind them, by
wrappers that record (name, start, end, parent) and puts the originals back
on exit.  ProjMat2.__mul__ gets a counter instead of a span.  A span's self
time is its duration minus the time its children cover; the program is
single-threaded, so children never overlap and the covered time is the sum
of their durations.
"""

from __future__ import annotations

import functools
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (attribute, span name); a span name is the per-layer metric it feeds,
# without the unit suffix.
PIPELINE_SPANS = (
    ("analyze", "pipeline.analyze"),
    ("verify", "pipeline.verify"),
    ("equation_schreier_graph", "schreier.build"),
    ("build_schreier", "schreier.build"),
    ("subgroup_generators", "schreier.build"),
    ("matrix_to_free_word", "freewords.rewrite"),
    ("pq_to_matrix", "freewords.rewrite"),
    ("subgroup_presentation", "stallings.presentation"),
    ("reduce_equation", "equations.reduce"),
    ("evaluate", "equations.evaluate"),
    ("substitute", "equations.substitute"),
)
ENUMERATION_SPANS = (
    ("enumerate_kernel", "enumeration.search"),
    ("evaluate", "enumeration.evaluate"),
    ("reduce_equation", "enumeration.reduce"),
)
CLASS_SPANS = (
    ("HContext", "from_matrices", "words.decompose"),
    ("AnalysisReport", "from_dict", "pipeline.from_dict"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.products = 0
        self._stack: list[int] = []

    def clear(self) -> None:
        self.spans.clear()
        self.products = 0

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            spans[idx] = (name, start, end, parent)

    @contextmanager
    def installed(self, heq):
        """Patch heq for the duration of the block."""
        pipeline, enumeration = heq.pipeline, heq.enumeration
        patches = []
        for attr, name in PIPELINE_SPANS:
            patches.append((pipeline, attr, self.wrap(name, getattr(pipeline, attr))))
        for attr, name in ENUMERATION_SPANS:
            patches.append((enumeration, attr, self.wrap(name, getattr(enumeration, attr))))
        for cls_name, attr, name in CLASS_SPANS:
            cls = getattr(heq, cls_name)
            func = cls.__dict__[attr].__func__
            patches.append((cls, attr, classmethod(self.wrap(name, func))))
        mul = heq.ProjMat2.__mul__

        def counted_mul(a, b):
            self.products += 1
            return mul(a, b)

        patches.append((heq.ProjMat2, "__mul__", counted_mul))
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        for owner, attr, new in patches:
            setattr(owner, attr, new)
        try:
            yield self
        finally:
            for owner, attr, old in reversed(saved):
                setattr(owner, attr, old)

    def self_times(self) -> Counter:
        """Self time per (root span name, span name), over all spans."""
        spans = self.spans
        covered = [0.0] * len(spans)
        roots: list[str] = []
        for name, start, end, parent in spans:
            # a parent is appended before its children
            roots.append(name if parent < 0 else roots[parent])
            if parent >= 0:
                covered[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _) in enumerate(spans):
            out[roots[i], name] += end - start - covered[i]
        return out

    def counts(self) -> Counter:
        return Counter(name for name, _, _, _ in self.spans)
