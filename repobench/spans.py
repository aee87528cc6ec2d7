"""Host-time span tracer for the benchmark's traced run.

The tracer times calls into the program's layers from the outside: the
benchmark wraps public functions and methods (see :mod:`repobench.layers`)
with :meth:`SpanTracer.wrap`, and every wrapped call becomes a *frame*.
Frames nest through one stack, so each frame knows how much of its
duration its child frames covered, and

    self time = duration - time covered by child frames.

Because times are integer nanoseconds and every child's duration is added
to exactly one parent, the self times of all frames under a root add up to
the root's duration exactly.  :meth:`SpanTracer.self_time_check` relies on
that identity: a wrapper that broke nesting would break the sum.

Two kinds of frame exist.  A *recorded* frame keeps a span record (name,
start, end, parent, run id) in memory for the Chrome trace written at the
end.  A *counted* frame, used for the hot GRB methods that run millions
of times per reproduction, only adds to its name's call count, total time
and self time, so memory stays flat.  Both kinds nest identically.
"""

import functools
import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union
from contextlib import contextmanager

#: (name, start_ns, end_ns, parent span index or -1, run id)
Span = Tuple[str, int, int, int, int]

#: name -> [calls, total_ns, self_ns]
Stats = Dict[str, List[int]]


class SpanTracer:
    """In-memory span recorder with per-name call, total and self times."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.stats: Stats = {}
        #: which unit of work the spans being recorded belong to
        self.run_id = 0
        # child-time accumulators of the open frames; the bottom slot
        # collects the durations of top-level frames
        self._child: List[int] = [0]
        # span indices of the open recorded frames (-1: no parent)
        self._open: List[int] = [-1]

    def _stat(self, name: str) -> List[int]:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0, 0]
        return stat

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the block as a recorded frame."""
        self._child.append(0)
        index = len(self.spans)
        parent = self._open[-1]
        self._open.append(index)
        self.spans.append((name, 0, 0, parent, self.run_id))
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            duration = end - start
            child = self._child.pop()
            self._child[-1] += duration
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.run_id)
            stat = self._stat(name)
            stat[0] += 1
            stat[1] += duration
            stat[2] += duration - child

    def wrap(
        self,
        fn: Callable[..., Any],
        name: Union[str, Callable[..., str]],
        record: bool = True,
        after: Optional[Callable[..., None]] = None,
    ) -> Callable[..., Any]:
        """A wrapper timing every call of ``fn`` as a frame.

        ``name`` is the frame name, or a function of the call's arguments
        returning it.  ``record=False`` makes a counted frame (no span
        record).  ``after(result, *args)`` runs once the call returned,
        outside the frame's timing.
        """
        if not record:
            return self._counted(fn, name)

        @functools.wraps(fn)
        def recorded(*args: Any, **kwargs: Any) -> Any:
            frame = name if isinstance(name, str) else name(*args, **kwargs)
            with self.span(frame):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return recorded

    def _counted(
        self, fn: Callable[..., Any], name: Union[str, Callable[..., str]]
    ) -> Callable[..., Any]:
        if not isinstance(name, str):
            raise TypeError("a counted frame needs a fixed name")
        stat = self._stat(name)
        child_stack = self._child
        clock = self.clock

        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            child_stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = child_stack.pop()
                child_stack[-1] += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - child

        return counted

    # ------------------------------------------------------------ queries

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0))[0]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0, 0))[1] / 1e9

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0, 0))[2] / 1e9

    def self_time_check(
        self, roots: Tuple[str, ...] = ("setup", "unit")
    ) -> Tuple[int, int]:
        """``(sum of self times over every frame, sum of root durations)``
        in ns.

        When every frame ran inside one of the ``roots`` spans the two
        numbers are equal, whatever the nesting.
        """
        total_self = sum(stat[2] for stat in self.stats.values())
        return total_self, sum(self.stats.get(r, (0, 0, 0))[1] for r in roots)


def self_times(spans: List[Span]) -> List[int]:
    """Self time of each recorded span, from the span records alone.

    The reference computation the tracer's running sums are tested
    against: a span's duration minus the durations of the spans whose
    parent it is.
    """
    child = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _)
            in enumerate(spans)]


def chrome_trace(spans: List[Span], process: str) -> Dict[str, object]:
    """Chrome trace-event JSON (``{"traceEvents": [...]}``) for the spans.

    The same object format ``repro.telemetry.chrome`` emits: complete
    (``X``) slices with microsecond ``ts``/``dur`` under one process, one
    thread per run id.  Load it in https://ui.perfetto.dev or
    ``chrome://tracing``.
    """
    origin = min((s[1] for s in spans), default=0)
    events: List[Dict[str, object]] = [{
        "name": "process_name", "ph": "M", "pid": 1,
        "args": {"name": process},
    }]
    for run_id in sorted({s[4] for s in spans}):
        events.append({
            "name": "thread_name", "ph": "M", "pid": 1, "tid": run_id,
            "args": {"name": f"run {run_id}"},
        })
    for index, (name, start, end, parent, run_id) in enumerate(spans):
        events.append({
            "name": name, "ph": "X", "pid": 1, "tid": run_id,
            "ts": (start - origin) / 1e3, "dur": (end - start) / 1e3,
            "args": {"span": index, "parent": parent},
        })
    return {"traceEvents": events, "displayTimeUnit": "ns"}


def write_chrome_trace(path: Path, spans: List[Span], process: str) -> Path:
    """Serialise :func:`chrome_trace` to ``path``; returns the path."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(spans, process)) + "\n")
    return path
