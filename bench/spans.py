"""In-memory span recording for the traced benchmark run.

A span is one timed call made by the benchmark into the library: its name,
its start and end (``perf_counter_ns``), the index of the span that encloses
it, and the id of the job it belongs to (-1 outside jobs, e.g. in set-up).
Spans live in flat arrays so that a traced run of a few hundred thousand
calls stays small; they are written out once, when the run ends, and then
reduced to per-name self time: a span's duration minus the part of it that
its direct children cover.

``NullTracer`` has the same interface and records nothing; the end-to-end
numbers are measured with it.
"""

from __future__ import annotations

import json
from array import array
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Dict, List

_NO_SPAN = nullcontext()


class NullTracer:
    """Records nothing; used for the untraced, end-to-end run."""

    job = -1

    def call(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        return fn(*args)

    def span(self, name: str):
        return _NO_SPAN

    def count(self, name: str, value: int) -> None:
        pass

    def peak(self, name: str, value: int) -> None:
        pass


class Tracer:
    """Records spans, counters and peaks in memory."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.job_id = array("q")
        self._open: List[int] = []
        self.job = -1
        self.counts: Dict[str, int] = {}
        self.peaks: Dict[str, int] = {}

    def _push(self, name: str) -> None:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.job_id.append(self.job)
        self.end.append(0)
        self._open.append(len(self.start))
        self.start.append(perf_counter_ns())

    def _pop(self) -> None:
        self.end[self._open.pop()] = perf_counter_ns()

    def call(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        self._push(name)
        try:
            return fn(*args)
        finally:
            self._pop()

    @contextmanager
    def span(self, name: str):
        self._push(name)
        try:
            yield
        finally:
            self._pop()

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: int) -> None:
        self.peaks[name] = max(self.peaks.get(name, value), value)

    def write(self, path: Path) -> None:
        """One JSON header line with the span names, then one line per span:
        ``[name_id, start_ns, end_ns, parent_index, job_id]``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps({"names": self.names}) + "\n")
            for row in zip(self.name_id, self.start, self.end, self.parent, self.job_id):
                out.write("[%d,%d,%d,%d,%d]\n" % row)

    def self_ns(self, in_jobs: bool = True) -> Dict[str, int]:
        """Total self time per span name, over spans inside jobs (job id >= 0)
        or, with ``in_jobs=False``, over spans outside them."""
        child = [0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        totals: Dict[str, int] = {}
        for i, nid in enumerate(self.name_id):
            if (self.job_id[i] >= 0) != in_jobs:
                continue
            name = self.names[nid]
            own = self.end[i] - self.start[i] - child[i]
            totals[name] = totals.get(name, 0) + own
        return totals

    def durations_ns(self, name: str) -> List[int]:
        nid = self._name_ids.get(name)
        return [
            self.end[i] - self.start[i]
            for i, n in enumerate(self.name_id)
            if n == nid
        ]
