"""In-memory spans taken around the benchmark's calls into minsep.

A span is (name, start, end, parent, item, raised).  Item spans are the
parents of the stage spans recorded while they are open.  A disabled tracer
calls straight through, so traced and untraced passes run the same code.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

ITEM = "bench.item"


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._item: str | None = None

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` (no span when disabled)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self._span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def item(self, item_id: str):
        """The span of one benchmark item; stage spans opened inside are its children."""
        if not self.enabled:
            yield
            return
        self._item = item_id
        try:
            with self._span(ITEM):
                yield
        finally:
            self._item = None

    @contextmanager
    def _span(self, name: str):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        raised = False
        start = perf_counter()
        try:
            yield
        except BaseException:
            raised = True
            raise
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self._item, raised)

    def write(self, path, extra: dict) -> None:
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "item": i, "raised": r}
            for n, s, e, p, i, r in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(extra, spans=rows), fh)
