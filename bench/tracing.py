"""In-memory spans recorded around calls into fptkit's layers.

A span is (name, start, end, parent).  Spans are kept in a list while the
workload runs and written out once at the end, so recording costs two
clock reads and one list append per call.  The benchmark opens spans only
around its own calls into the library; nothing inside `src/fptkit` is
instrumented.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    """Records nested spans; `layer` is the part of a name before the first dot."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), None, parent]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def duration(self, name) -> float:
        """Summed duration of every span with this exact name."""
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def self_times(self) -> dict:
        """Per-layer self time: each span's duration minus its children's.

        Children of one span never overlap (calls are sequential), so the
        covered part of a span is the sum of its children's durations.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - covered
        return out

    def dump(self, path) -> None:
        rows = [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh)
