"""In-memory span tracer that wraps functions from outside the program.

A span is (name, start, end, parent, op).  ``start``/``end`` are
``perf_counter`` seconds, ``parent`` indexes the enclosing span on the same
thread (-1 at top level) and ``op`` is the benchmark op that was running.
Spans stay in memory until ``write`` dumps them at the end of a run.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict = defaultdict(float)
        self.op = -1
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn):
        """``fn`` wrapped so each call records one span called ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            record = [name, time.perf_counter(), None, stack[-1] if stack else -1, self.op]
            self.spans.append(record)
            stack.append(len(self.spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    def patch(self, owner, attr: str, replacement) -> None:
        """Replace ``owner.attr`` until ``restore``; owner is a module or class."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str) -> None:
        self.patch(owner, attr, self.span(name, getattr(owner, attr)))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its direct children cover.

    Children may overlap (concurrent callees), so their intervals are merged
    before the covered length is subtracted.
    """
    children: defaultdict = defaultdict(list)
    for i, (_, start, end, parent, _op) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _parent, _op) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out
