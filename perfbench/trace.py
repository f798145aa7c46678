"""In-memory spans: name, start, end and parent, written out at the end."""

from __future__ import annotations

import contextlib
import json
import time


class Span:
    __slots__ = ('id', 'name', 'start', 'end', 'parent')

    def __init__(self, id_, name, start, end, parent):
        self.id, self.name, self.start, self.end, self.parent = \
            id_, name, start, end, parent

    @property
    def duration(self):
        return self.end - self.start


class Trace:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self._open = []
        # manifests stamp stages with time.time(); spans use perf_counter
        self.wall_offset = time.time() - time.perf_counter()

    def add(self, name, start, end, parent=None):
        if parent is None and self._open:
            parent = self._open[-1]
        span = Span(len(self.spans), name, start, end,
                    parent.id if parent is not None else None)
        self.spans.append(span)
        return span

    def add_wall(self, name, start, end, parent):
        """Span from two ``time.time()`` stamps."""
        return self.add(name, start - self.wall_offset,
                        end - self.wall_offset, parent)

    @contextlib.contextmanager
    def span(self, name):
        span = self.add(name, time.perf_counter(), None)
        self._open.append(span)
        try:
            yield span
        finally:
            self._open.pop()
            span.end = time.perf_counter()

    def count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def busy(self, name):
        """Summed duration of every span with this name."""
        return sum(s.duration for s in self.spans if s.name == name)

    def dump(self, path, **extra):
        with open(path, 'w') as f:
            json.dump({
                'spans': [{'id': s.id, 'name': s.name, 'start': s.start,
                           'end': s.end, 'parent': s.parent}
                          for s in self.spans],
                'counts': self.counts,
                **extra,
            }, f)
