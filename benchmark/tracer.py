"""Spans around calls into swphase, recorded from outside the package.

The tracer replaces public names where the calling module looks them up
(``swphase.cli.run_session``, ``swphase.oracle.hilbert_phase``, class
methods such as ``PvTracker.run``) with wrappers that open a span, and puts
the originals back on ``restore``. Spans stay in memory as
``[name, start, end, parent, run_id]`` until ``write`` dumps them.

Per-sample ``step`` calls are never wrapped: a Python wrapper costs about as
much as the roughly 1 us stage it would measure.
"""
from __future__ import annotations

import csv
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []                  # [name, start, end, parent, run_id]
        self.counts = defaultdict(float)
        self.run_id = 0
        self._stack = []
        self._patches = []               # (owner, attribute, original)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def add(self, name: str, start: float, end: float) -> None:
        """A finished span timed by the caller, under the open span."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, self.run_id])

    def wrap(self, name: str, fn, after=None):
        """fn inside a span; after(args, result, seconds) runs once it closes."""
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                span = self.spans[idx]
                after(args, result, span[2] - span[1])
            return result
        return traced

    def replace(self, owner, attr: str, replacement) -> None:
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Wrap owner.attr (a module function or a class method) in a span."""
        self.replace(owner, attr, self.wrap(name, vars(owner)[attr], after))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict:
        """Seconds per span name, each span's duration minus its children's."""
        out = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def write(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(["name", "start_s", "end_s", "parent", "run_id"])
            w.writerows(self.spans)
