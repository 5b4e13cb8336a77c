"""In-memory span recorder for the traced benchmark pass.

A span is ``[name, start, end, parent, request]``: wall-clock bounds from
``time.perf_counter()``, the index of the enclosing span (``None`` for a
root) and the id of the request it belongs to.  Spans stay in memory while
the pass runs and are written out once, at the end (:meth:`Tracer.dump`).

The untraced pass never touches a tracer, so the end-to-end figures carry
no recording cost; the traced pass is a separate run and the difference
between the two is reported as ``trace.overhead_pct``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence

NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self._open: List[int] = []
        #: Request id stamped on every span opened from now on.
        self.request: Optional[int] = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), 0.0, parent, self.request]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[END] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> List[float]:
        """Per span: its duration minus the durations of its direct children
        (children of one span never overlap: the benchmark is single-threaded)."""
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] is not None:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def self_time_by_name(self, scale: Sequence[float]) -> Dict[str, float]:
        """Self time summed by span name, each span's multiplied by the
        *scale* of its request."""
        totals: Dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            totals[span[NAME]] += own * scale[span[REQUEST]]
        return dict(totals)

    def dump(self, path: str) -> None:
        rows = [
            {"name": name, "start": start, "end": end, "parent": parent,
             "request": request}
            for name, start, end, parent, request in self.spans
        ]
        with open(path, "w") as handle:
            json.dump(rows, handle)
