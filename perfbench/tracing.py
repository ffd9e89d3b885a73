"""In-memory span and count recorder for the benchmark's traced runs.

Spans are opened in the benchmark's own code around calls into the
public functions of each nvscope module; nothing inside the package is
instrumented. Each span records its name, an optional tag (the scenario
it ran on), the unit of work it belongs to, its parent span and its
start and end times in perf_counter seconds. Counts are recorded at the
same boundaries. While `enabled` is False, `span` and `count` record
nothing, so untraced units pay only for an empty context manager.
"""

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []   # [unit, span_id, parent_id, name, tag, start, end]
        self.counts = {}  # unit -> {(name, tag): value}
        self._stack = []
        self._unit = None

    @contextmanager
    def unit(self, unit_id):
        """Attribute the spans and counts recorded inside to unit_id."""
        self._unit = unit_id
        try:
            yield
        finally:
            self._unit = None

    @contextmanager
    def span(self, name, tag=None):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        record = [self._unit, len(self.spans), parent, name, tag,
                  time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(record[1])
        try:
            yield
        finally:
            record[6] = time.perf_counter()
            self._stack.pop()

    def count(self, name, value, tag=None):
        if self.enabled:
            unit = self.counts.setdefault(self._unit, {})
            unit[(name, tag)] = unit.get((name, tag), 0) + value

    def unit_totals(self, unit_id):
        """Self time per (name, tag) and counts of one unit, plus span count.

        A span's self time is its duration minus the time its child
        spans cover.
        """
        spans = [s for s in self.spans if s[0] == unit_id]
        child_time = {}
        for s in spans:
            if s[2] is not None:
                child_time[s[2]] = child_time.get(s[2], 0.0) + s[6] - s[5]
        seconds = {}
        for s in spans:
            key = (s[3], s[4])
            self_time = s[6] - s[5] - child_time.get(s[1], 0.0)
            seconds[key] = seconds.get(key, 0.0) + self_time
        return seconds, dict(self.counts.get(unit_id, {})), len(spans)
