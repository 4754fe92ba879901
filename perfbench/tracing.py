"""Spans recorded around calls into the library's layers.

A :class:`Tracer` always keeps a running total per span name, which the
untraced run needs for its stage times.  With ``enabled`` it also keeps
every span (name, start, end, parent) in memory, and :meth:`write`
saves them as JSON lines when the benchmark ends.

Density calls happen inside the engine and Picard, so they are traced
through a subclass of the workload's own model class made by
:func:`traced_model_class`; the library itself is not touched.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

DENSITY_METHODS = (
    "speed_sq_bound",
    "conditional",
    "sample_velocity",
    "sample_speed_tilted",
    "sample_state",
    "mean_speed",
)
SAMPLER_METHODS = ("sample_velocity", "sample_speed_tilted", "sample_state")


class Tracer:
    """Span recorder for one run, or for one probe inside a traced run."""

    def __init__(self, enabled, label="rounds"):
        self.enabled = enabled
        self.label = label
        self.spans = []
        self.totals = {}
        self._stack = []
        self.round = None

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        span_id = len(self.spans) if self.enabled else None
        if self.enabled:
            self.spans.append(None)
            self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            total, count = self.totals.get(name, (0.0, 0))
            self.totals[name] = (total + end - start, count + 1)
            if self.enabled:
                self._stack.pop()
                self.spans[span_id] = (name, start, end, parent, self.round)

    def total(self, name):
        """Summed seconds of every span called ``name``."""
        return self.totals.get(name, (0.0, 0))[0]

    def count(self, name):
        return self.totals.get(name, (0.0, 0))[1]

    def mean(self, name):
        total, count = self.totals.get(name, (0.0, 0))
        return total / count if count else float("nan")

    def write(self, fh):
        for i, (name, start, end, parent, rnd) in enumerate(self.spans):
            doc = {
                "trace": self.label,
                "id": i,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "round": rnd,
            }
            fh.write(json.dumps(doc) + "\n")


def traced_model_class(cls, tracer):
    """Subclass of density class ``cls`` whose public calls record spans.

    The subclass passes every ``isinstance`` test the library makes on
    ``cls``, so the engine, Picard and the diagnostics treat it as the
    workload's own model.
    """

    def wrap(name):
        base = getattr(cls, name)

        def method(self, *args, **kwargs):
            with tracer.span("densities." + name):
                return base(self, *args, **kwargs)

        method.__name__ = name
        return method

    return type(
        "Traced" + cls.__name__, (cls,), {n: wrap(n) for n in DENSITY_METHODS}
    )
