"""Span recording for traced benchmark runs.

A span is one call from the benchmark into an isocut layer: its name, start,
end, parent span and op id. Spans are kept in flat arrays while the run goes
and written out once it ends. A span's self time is its duration minus the
time its direct children cover; summing self time by name gives each layer's
busy time. Counters (states visited, vertices built) are recorded at the same
call sites, so ratios are measured where the work happens.

Untraced runs use ``NullTracer``, which runs the same call sites and records
nothing, so traced and untraced runs execute the same benchmark code.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

_now = time.perf_counter_ns


class NullTracer:
    """Records nothing; ``call`` is a plain call."""

    enabled = False
    last_ns = 0

    def begin_op(self, op_id: int, kind: str) -> None:
        pass

    def end_op(self) -> None:
        pass

    def call(self, name: str, fn, *args):
        return fn(*args)

    def count(self, name: str, amount: int) -> None:
        pass


class Tracer(NullTracer):
    """In-memory span recorder (see the module docstring)."""

    enabled = True

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._op_id = -1
        self.last_ns = 0

    def _begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(_now())
        return index

    def _end(self, index: int) -> None:
        self.end[index] = stop = _now()
        self.last_ns = stop - self.start[index]
        self._stack.pop()

    def begin_op(self, op_id: int, kind: str) -> None:
        self._op_id = op_id
        self._stack.clear()
        self._begin("op." + kind)

    def end_op(self) -> None:
        self._end(self._stack[0])

    def call(self, name: str, fn, *args):
        index = self._begin(name)
        try:
            return fn(*args)
        finally:
            self._end(index)

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def self_times(self) -> dict[str, tuple[int, int]]:
        """name -> (self time in ns summed over its spans, span count)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        totals = [0] * len(self.names)
        calls = [0] * len(self.names)
        name_id = self.name_id
        for i in range(n):
            nid = name_id[i]
            totals[nid] += dur[i] - child[i]
            calls[nid] += 1
        return {name: (totals[k], calls[k]) for k, name in enumerate(self.names)}

    def write_csv(self, path: Path) -> None:
        """One line per span: name,start_ns,end_ns,parent,op."""
        names = self.names
        with open(path, "w") as out:
            out.write("name,start_ns,end_ns,parent,op\n")
            for i in range(len(self.start)):
                out.write(
                    f"{names[self.name_id[i]]},{self.start[i]},{self.end[i]},"
                    f"{self.parent[i]},{self.op[i]}\n"
                )
