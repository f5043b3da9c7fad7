"""Spans and counters recorded by the benchmark around its calls into enermach.

Spans live in memory while a run goes on and are written out once at the
end (:meth:`Tracer.dump`).  A span's self time is its duration minus the
time covered by its child spans; spans nest strictly because the benchmark
is a single closed-loop client, so the children of a span never overlap.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

KERNEL_METHODS = ("evaluate", "d_flux", "d_theta", "d_rho")


class NullTracer:
    """Stand-in used for the untraced passes: records nothing."""

    def span(self, name, **attrs):
        return nullcontext()

    def count(self, name, n=1):
        pass


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index, start, end, attrs]
        self.counters = defaultdict(float)
        self._stack = []

    @contextmanager
    def span(self, name, **attrs):
        record = [name, self._stack[-1] if self._stack else None, time.perf_counter(), None, attrs]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._stack.pop()
            record[3] = time.perf_counter()

    def count(self, name, n=1):
        self.counters[name] += n

    def durations(self, name):
        return [s[3] - s[2] for s in self.spans if s[0] == name]

    def total(self, name, **match):
        return sum(
            s[3] - s[2]
            for s in self.spans
            if s[0] == name and all(s[4].get(k) == v for k, v in match.items())
        )

    def attr_sum(self, name, key, **match):
        return sum(
            s[4].get(key, 0)
            for s in self.spans
            if s[0] == name and all(s[4].get(k) == v for k, v in match.items())
        )

    def self_times(self):
        """Total self time per span name, in seconds."""
        child = defaultdict(float)
        for name, parent, start, end, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for k, (name, _, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[k]
        return dict(out)

    def dump(self, path):
        t0 = self.spans[0][2] if self.spans else 0.0
        doc = {
            "spans": [
                {"id": k, "name": n, "parent": p, "start_s": s - t0, "end_s": e - t0, "attrs": a}
                for k, (n, p, s, e, a) in enumerate(self.spans)
            ],
            "counters": dict(self.counters),
            "self_time_s": self.self_times(),
        }
        with open(path, "w") as f:
            json.dump(doc, f, default=str)


class KernelTimer:
    """Counts and times the energy-model methods of wrapped model instances.

    Wrapping sets instance attributes that shadow the class methods, so the
    library is driven unchanged and only the wrapped instances are timed.
    """

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)

    def wrap(self, model, module):
        for method in KERNEL_METHODS:
            setattr(model, method, self._timed(getattr(model, method), module))
        return model

    def _timed(self, fn, module):
        perf = time.perf_counter

        def timed(theta, rho, phi):
            t0 = perf()
            out = fn(theta, rho, phi)
            self.seconds[module] += perf() - t0
            self.calls[module] += 1
            return out

        return timed

    def snapshot(self):
        return (sum(self.calls.values()), sum(self.seconds.values()))
