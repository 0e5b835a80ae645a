"""In-memory host-time span tracer for the benchmark's traced runs.

Spans are opened around calls into the program's public functions,
either by the workload code itself or by wrappers this tracer installs
on public functions for the duration of a traced run.  Nothing inside
``src/`` is edited: a wrapper calls the original function unchanged.

Spans stay in memory until the run ends and are then written as JSONL
in the ``repro-trace`` schema (a ``meta`` line, then depth-first
``span`` records with an explicit ``path``), so ``repro-trace
summarize`` and ``repro-trace flame`` read the file as they read a
program trace.  Times are host ``time.perf_counter`` seconds.  Each
record also carries the span's ``key`` (``study[3]/analyze/tokens``),
its ``parent`` key, the rep it belongs to, its self time and its
counters.  GC pauses, observed through ``gc.callbacks``, are charged to
the innermost open span of the thread that paid for them.
"""

from __future__ import annotations

import functools
import gc
import json
import resource
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple


def cpu_seconds() -> float:
    """User + system CPU of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime
            + children.ru_utime + children.ru_stime)


class Span:
    """One timed interval; ``rep`` is set on a rep's root span only."""

    __slots__ = ("name", "start", "end", "rep", "counters", "children")

    def __init__(self, name: str, start: float,
                 rep: Optional[int] = None) -> None:
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.rep = rep
        self.counters: Dict[str, float] = {}
        self.children: List["Span"] = []

    @property
    def duration(self) -> float:
        return 0.0 if self.end is None else self.end - self.start

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def self_time(self) -> float:
        """Duration minus the union of the children's intervals."""
        if self.end is None:
            return 0.0
        covered = 0.0
        cursor = self.start
        for child in sorted(self.children, key=lambda span: span.start):
            if child.end is None:
                continue
            lo = max(child.start, cursor)
            hi = min(child.end, self.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return self.duration - covered

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()


class Tracer:
    """Collects spans from every thread of this process.

    Each thread nests spans on its own stack.  A span opened on a thread
    with no open span goes under :attr:`foreign_parent` when one is set
    (the service runner thread's work goes under the client's job span)
    and becomes a new root otherwise.
    """

    def __init__(self) -> None:
        self.roots: List[Span] = []
        #: Parent for spans opened on threads that have no open span.
        self.foreign_parent: Optional[Span] = None
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object, bool]] = []
        self._gc_started = 0.0
        gc.callbacks.append(self._on_gc)

    # -- spans -----------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else self.foreign_parent

    def start(self, name: str, rep: Optional[int] = None,
              start: Optional[float] = None) -> Span:
        """Open a span under the current one and make it current."""
        span = Span(name, time.perf_counter() if start is None else start,
                    rep=rep)
        parent = self.current()
        (parent.children if parent is not None else self.roots).append(span)
        self._stack().append(span)
        return span

    def finish(self, span: Span, end: Optional[float] = None) -> None:
        """Close ``span`` (and anything left open above it)."""
        span.end = time.perf_counter() if end is None else end
        stack = self._stack()
        if span in stack:
            del stack[stack.index(span):]

    @contextmanager
    def span(self, name: str, rep: Optional[int] = None) -> Iterator[Span]:
        span = self.start(name, rep=rep)
        try:
            yield span
        finally:
            self.finish(span)

    def record(self, name: str, parent: Span, start: float,
               end: float) -> Span:
        """Add an interval measured elsewhere as a child of ``parent``."""
        span = Span(name, start)
        span.end = end
        parent.children.append(span)
        return span

    # -- wrappers around public functions ------------------------------------

    def wrap(self, owner: object, attr: str, name: str, cpu: bool = False,
             measure: Optional[Callable[[Span, tuple, object], None]] = None
             ) -> None:
        """Time every call of ``owner.attr`` as a span named ``name``.

        ``cpu`` adds the process CPU spent in the call as the ``cpu_s``
        counter; ``measure(span, args, result)`` adds counters taken
        from the call's arguments and result.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer.start(name)
            cpu_before = cpu_seconds() if cpu else 0.0
            try:
                result = original(*args, **kwargs)
            finally:
                if cpu:
                    span.count("cpu_s", cpu_seconds() - cpu_before)
                tracer.finish(span)
            if measure is not None:
                measure(span, args, result)
            return result

        self._patch(owner, attr, traced)

    def time_calls(self, owner: object, attr: str, counter: str,
                   measure: Optional[Callable[[Span, object], None]] = None
                   ) -> None:
        """Add the wall time of every call of ``owner.attr`` to the
        ``counter`` of the current span, with no span of its own: for
        calls too short and too many to trace one by one.
        ``measure(span, result)`` adds counters taken from the result.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            result = original(*args, **kwargs)
            span = tracer.current()
            if span is not None:
                span.count(counter, time.perf_counter() - start)
                if measure is not None:
                    measure(span, result)
            return result

        self._patch(owner, attr, timed)

    def tap(self, owner: object, attr: str,
            observe: Callable[[tuple], None]) -> None:
        """Call ``observe(args)`` before every call of ``owner.attr``."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def tapped(*args, **kwargs):
            observe(args)
            return original(*args, **kwargs)

        self._patch(owner, attr, tapped)

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        owned = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), owned))
        setattr(owner, attr, replacement)

    def unpatch(self) -> None:
        """Restore every wrapped function, newest first."""
        while self._patches:
            owner, attr, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def close(self) -> None:
        self.unpatch()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- GC attribution --------------------------------------------------

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        # A collection runs with the interpreter lock held, so start and
        # stop of one collection always pair on the same thread.
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        span = self.current()
        if span is not None:
            span.count("gc_pause_s", time.perf_counter() - self._gc_started)
            span.count("gc_collections", 1)

    # -- output ------------------------------------------------------------

    def write(self, path: str, meta: Dict[str, object],
              gauges: Dict[str, float]) -> None:
        """Write the spans (and ``gauges``) as a repro-trace JSONL file."""
        with open(path, "w") as handle:
            header = {"type": "meta", "schema": 1, "kind": "repro-trace"}
            header.update(meta)
            handle.write(_dumps(header) + "\n")
            for index, root in enumerate(self.roots):
                for record in _span_records(root, (index,), None):
                    handle.write(_dumps(record) + "\n")
            for name in sorted(gauges):
                handle.write(_dumps({"type": "gauge", "name": name,
                                     "value": gauges[name]}) + "\n")


def _segment(span: Span) -> str:
    return span.name if span.rep is None else "%s[%d]" % (span.name,
                                                          span.rep)


def _span_records(span: Span, path: Tuple[int, ...],
                  parent_key: Optional[str], rep: Optional[int] = None,
                  key: Optional[str] = None) -> Iterator[Dict[str, object]]:
    rep = span.rep if span.rep is not None else rep
    key = key or _segment(span)
    yield {
        "type": "span", "name": span.name, "start": span.start,
        "end": span.end, "depth": len(path) - 1, "path": list(path),
        "attrs": {} if span.rep is None else {"index": span.rep},
        "key": key, "parent": parent_key, "rep": rep,
        "self": span.self_time(), "counters": dict(span.counters),
    }
    seen: Dict[str, int] = {}
    for index, child in enumerate(span.children):
        segment = _segment(child)
        seen[segment] = seen.get(segment, 0) + 1
        if seen[segment] > 1:
            segment = "%s#%d" % (segment, seen[segment] - 1)
        yield from _span_records(child, path + (index,), key, rep,
                                 key + "/" + segment)


def _dumps(record: Dict[str, object]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))
