"""In-memory spans for the traced run, written out when the run ends."""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path


class Span:
    __slots__ = ("id", "name", "parent", "start", "end")

    def __init__(self, id: int, name: str, parent: int | None):
        self.id, self.name, self.parent = id, name, parent
        self.start = time.perf_counter_ns()
        self.end = self.start

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


class Tracer:
    """Records nested spans (name, start, end, parent) sharing one run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sp = Span(len(self.spans), name, self._open[-1] if self._open else None)
        self.spans.append(sp)
        self._open.append(sp.id)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter_ns()
            self._open.pop()

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (count, total seconds, self seconds).

        Self time is span time minus the time of its child spans; the
        spans of one thread nest, so children never overlap.
        """
        child = defaultdict(float)
        for sp in self.spans:
            if sp.parent is not None:
                child[sp.parent] += sp.seconds
        out: dict[str, list] = {}
        for sp in self.spans:
            row = out.setdefault(sp.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += sp.seconds
            row[2] += sp.seconds - child[sp.id]
        return {name: tuple(row) for name, row in out.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = [
            {"id": sp.id, "name": sp.name, "parent": sp.parent, "run": self.run_id,
             "start_ns": sp.start, "end_ns": sp.end}
            for sp in self.spans
        ]
        path.write_text(json.dumps(spans) + "\n", encoding="utf-8")
