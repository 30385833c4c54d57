"""Timing and span recording around the benchmark's calls into the package.

Every call the benchmark makes into a package module goes through
`Tracer.call`, which always adds the call's duration to the current
operation's totals (the untraced metrics need them).  With recording on it
also keeps a span (name, start, end, parent) in memory; spans are written
out once the run ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    calls: int = 1  # calls the span covers (a loop timed as one span)
    pass_no: int = 0


class Tracer:
    def __init__(self) -> None:
        self.recording = False
        self.pass_no = 0
        self.spans: list[Span] = []
        self.op_calls: dict[str, float] = {}
        self._parent: int | None = None

    def begin_op(self, name: str, start: float) -> None:
        self.op_calls = {}
        self._parent = None
        if self.recording:
            self.spans.append(Span("op:" + name, start, start, None, 1, self.pass_no))
            self._parent = len(self.spans) - 1

    def end_op(self, end: float) -> None:
        if self._parent is not None:
            self.spans[self._parent].end = end
        self._parent = None

    def call(self, name: str, fn, *args, calls: int = 1, **kwargs):
        """Run fn(*args, **kwargs) as a call named `module.function`."""
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        t1 = perf_counter()
        self.op_calls[name] = self.op_calls.get(name, 0.0) + (t1 - t0)
        if self.recording:
            self.spans.append(Span(name, t0, t1, self._parent, calls, self.pass_no))
        return out


def layer_totals(spans: list[Span], indices: list[int]) -> dict[str, tuple[float, int]]:
    """Self time and call count per layer over the spans at `indices`.

    The layer of a span is the text before the first dot of its name
    (`hypergraph.is_turan_system` -> `hypergraph`); operation spans belong to
    the benchmark itself (`bench`).  Self time is the span's duration minus
    the time its child spans cover.
    """
    child_time: dict[int, float] = {}
    for i in indices:
        sp = spans[i]
        if sp.parent is not None:
            child_time[sp.parent] = child_time.get(sp.parent, 0.0) + (sp.end - sp.start)
    totals: dict[str, tuple[float, int]] = {}
    for i in indices:
        sp = spans[i]
        layer = "bench" if sp.name.startswith("op:") else sp.name.split(".", 1)[0]
        self_time = (sp.end - sp.start) - child_time.get(i, 0.0)
        t, n = totals.get(layer, (0.0, 0))
        totals[layer] = (t + self_time, n + (0 if layer == "bench" else sp.calls))
    return totals
