"""In-memory span tracer that times qverify's layers from the outside.

A span is recorded around each call of a wrapped entry point: its name, start,
end, the span that was open when it started (its parent) and the job it
belongs to. Entry points are wrapped under the name their caller looks up, so
``qverify.device.compose_unitary`` is wrapped rather than
``qverify.circuits.compose_unitary``: the device imported the function into
its own namespace and calls it from there.

The program runs single-threaded, so child spans nest inside their parent and
never overlap one another. A span's self time is therefore its duration minus
the durations of its direct children, and the self times of a job's spans add
up to the duration of its root span.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager


def _settings_counts(self, inverse_prefix, k, settings, *args, **kwargs):
    return {"device.settings": len(settings), "device.shots": sum(s[2] for s in settings)}


# (module, attribute looked up by the caller, span name, per-call counter)
TARGETS = (
    ("qverify.reconstruction", "learn_multi", "reconstruction.learn_multi", None),
    ("qverify.reconstruction", "match_two_qubit", "reconstruction.match_two_qubit", None),
    ("qverify.reconstruction", "minimize_residual", "reconstruction.minimize_residual", None),
    ("qverify.reconstruction", "estimate_window", "tomography.estimate_window", None),
    ("qverify.reconstruction", "pair_windows", "tomography.pair_windows", None),
    ("qverify.reconstruction", "project_to_physical", "tomography.project_to_physical", None),
    ("qverify.reconstruction", "partial_trace_array", "core.partial_trace_array", None),
    ("qverify.reconstruction", "trace_distance_array", "core.trace_distance_array", None),
    ("qverify.reconstruction", "cached_resolution", "resolution.cached_resolution", None),
    ("qverify.resolution", "cached_resolution", "resolution.cached_resolution", None),
    ("qverify.device", "Device.execute_settings", "device.execute_settings", _settings_counts),
    ("qverify.device", "Device.ideal_choi_state", "device.ideal_choi_state", None),
    ("qverify.device", "compose_unitary", "circuits.compose_unitary", None),
)

NAME, START, END, PARENT, JOB = range(5)


class Tracer:
    """Spans and counters of one run, kept in memory until written out."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple, float] = defaultdict(float)
        self.job = None
        self._stack: list[int] = []

    def wrap(self, fn, name: str, count=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                for key, value in count(*args, **kwargs).items():
                    counts[(self.job, key)] += value
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else None, self.job])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][END] = time.perf_counter()

        return traced

    @contextmanager
    def installed(self, targets=TARGETS):
        """Replace every target by its traced wrapper; restore them on exit."""
        saved = []
        try:
            for module, attr, name, count in targets:
                owner = importlib.import_module(module)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
                saved.append((owner, leaf, original))
                setattr(owner, leaf, self.wrap(original, name, count))
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    def dump(self) -> dict:
        return {"fields": ["name", "start", "end", "parent", "job"], "spans": self.spans}


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def by_job(spans: list[list]):
    """Per job: root duration, and self seconds and call count per span name."""
    roots: dict = defaultdict(float)
    self_s: dict = defaultdict(lambda: defaultdict(float))
    calls: dict = defaultdict(lambda: defaultdict(int))
    for s, own in zip(spans, self_times(spans)):
        if s[PARENT] is None:
            roots[s[JOB]] += s[END] - s[START]
        self_s[s[JOB]][s[NAME]] += own
        calls[s[JOB]][s[NAME]] += 1
    return roots, self_s, calls
