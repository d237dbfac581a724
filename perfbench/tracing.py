"""In-memory spans recorded around the library's public functions.

The tracer patches functions from outside the package: every module of the
``trackcentre`` package that holds a reference to a wrapped function (its
defining module, a module that imported it by name, the package's
re-exports) gets the wrapper, so each caller resolves the traced version.
``uninstall`` restores the originals, so untraced work runs the plain code.

A span is ``[name, start, end, parent, counts]``: times come from
``time.perf_counter``, ``parent`` is the index of the enclosing span in the
same list (-1 at the root) and ``counts`` holds the counters a span
recorded at its boundary, or ``None``.  The program is single-threaded, so
the children of a span never overlap and its self time is its duration
minus the sum of its direct children's durations.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "trackcentre"


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.rounds: list[list] = []
        self._stack: list[int] = []
        self._patched: list = []

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` wrapped in a span; ``count(args, kwargs, result)``
        returns the counters recorded when the call returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                self.spans[idx][4] = count(args, kwargs, result)
            return result

        return traced

    def install(self, targets) -> None:
        """Patch each ``(module, attribute, span name, count)`` target in
        every loaded module of the package that refers to it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for module, attr, name, count in targets:
            original = getattr(module, attr)
            traced = self.wrap(name, original, count)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, traced)
                        self._patched.append((m, key, original))

    def uninstall(self) -> None:
        for m, key, original in reversed(self._patched):
            setattr(m, key, original)
        self._patched.clear()

    def end_round(self) -> list:
        """Close the current round of spans and start an empty one."""
        if self._stack:
            raise RuntimeError("spans still open at the end of a round")
        spans, self.spans = self.spans, []
        self.rounds.append(spans)
        return spans

    def write(self, path) -> None:
        """Write every recorded span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as f:
            for r, spans in enumerate(self.rounds):
                own = self_times(spans)
                for i, (name, start, end, parent, counts) in enumerate(spans):
                    f.write(json.dumps({
                        "run": self.run_id, "round": r, "id": i, "name": name,
                        "start": start, "end": end, "parent": parent,
                        "self": own[i], "counts": counts,
                    }) + "\n")


def self_times(spans) -> list[float]:
    """Per span: duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def under(spans, idx: int, ancestor: str) -> bool:
    """True if some enclosing span of ``spans[idx]`` is named ``ancestor``."""
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == ancestor:
            return True
        parent = spans[parent][3]
    return False


def totals(spans):
    """Per span name: total duration, total self time, calls and summed
    counters."""
    own = self_times(spans)
    dur = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, _, c) in enumerate(spans):
        dur[name] += end - start
        self_s[name] += own[i]
        calls[name] += 1
        for key, value in (c or {}).items():
            counts[name][key] += value
    return dur, self_s, calls, counts
