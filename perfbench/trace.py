"""Span recording around the calls into each layer, from the benchmark's side.

The traced run rebinds each layer's entry point *where it is called* (for
example ``repro.graph.target.inner_join``, the name ``TargetGraph._join``
looks up) with a wrapper that records a span, and restores the originals
afterwards.  Nothing under ``src/`` changes.

A span records its name, start, end, parent, request id and thread.  Parents
come from a per-thread stack; a span started on another thread can name its
parent explicitly (the HTTP handler takes its parent from a request header),
so one request's spans form a single tree across threads.  Spans stay in
memory and are written out when the run ends.  A span's *self time* is its
duration minus the part of it that its children cover.

Spans inside process-pool workers are out of reach: wrappers only record in
the process that installed them.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

#: HTTP header carrying the client's read span id to the server's handler.
SPAN_HEADER = "X-Bench-Span"


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None
    thread: int
    value: int = 0


class Recorder:
    """Collects spans in memory.  ``paused`` lets reference checks run unrecorded."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.paused = False
        self._pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def active(self) -> bool:
        return not self.paused and os.getpid() == self._pid

    def open(
        self, name: str, *, parent: int | None = None, request: int | None = None
    ) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1].id
            request = stack[-1].request if request is None else request
        span = Span(next(self._ids), name, time.perf_counter(), 0.0, parent, request,
                    threading.get_ident())
        if span.request is None:
            span.request = span.id
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, *, parent: int | None = None) -> Iterator[Span | None]:
        if not self.active:
            yield None
            return
        span = self.open(name, parent=parent, request=parent)
        try:
            yield span
        finally:
            self.close(span)

    def wrap(self, name: str, fn: Callable, value: Callable | None = None) -> Callable:
        """``fn`` recording one span per call; ``value(result, args)`` fills ``Span.value``."""
        recorder = self

        def traced(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            span = recorder.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(span)
            if value is not None:
                span.value = value(result, args)
            return result

        # updated=() because ``fn`` may be a class (JoinGraph): keep its __dict__ out.
        return functools.update_wrapper(traced, fn, updated=())

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span in sorted(self.spans, key=lambda span: span.id):
                out.write(json.dumps([span.id, span.name, span.start, span.end,
                                      span.parent, span.request, span.thread, span.value]))
                out.write("\n")


# ------------------------------------------------------------------ rebinding
def _targets() -> list[tuple[object, str, str, Callable | None]]:
    """(owner, attribute, span name, value extractor) for every traced entry point."""
    from repro.core import dance
    from repro.graph import target
    from repro.marketplace.market import Marketplace
    from repro.sampling.resampling import ResamplingPolicy
    from repro.search import acquisition
    from repro.service import server
    from repro.service.session import AcquisitionService

    return [
        (target, "inner_join", "relational.inner_join", lambda result, args: len(result)),
        (target, "join_quality", "quality.join_quality", None),
        (target, "attribute_set_correlation", "infotheory.correlation", None),
        (target, "join_informativeness", "infotheory.join_informativeness", None),
        (target.TargetGraph, "evaluate", "graph.evaluate", None),
        (ResamplingPolicy, "__call__", "sampling.resample",
         lambda result, args: int(result is not args[1])),
        (acquisition, "minimal_weight_igraphs", "graph.step1", None),
        (acquisition, "mcmc_search", "search.mcmc", None),
        (dance, "discover_afds", "quality.discover_afds", None),
        (dance, "JoinGraph", "graph.join_graph_build", None),
        (dance.DANCE, "acquire", "core.dance_acquire", None),
        (dance.DANCE, "persist", "storage.persist", None),
        (Marketplace, "sell_samples", "marketplace.sell_samples", None),
        (AcquisitionService, "acquire", "service.acquire", None),
        (server._AcquisitionHandler, "do_POST", "service.http_handler", None),
    ]


@contextlib.contextmanager
def installed(recorder: Recorder) -> Iterator[Recorder]:
    """Rebind every entry point to a recording wrapper; restore them on exit."""
    saved = []
    try:
        for owner, attribute, name, value in _targets():
            original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(
                owner, attribute
            )
            saved.append((owner, attribute, original))
            if attribute == "do_POST":
                wrapper = _handler_wrapper(recorder, original)
            else:
                wrapper = recorder.wrap(name, original, value)
            setattr(owner, attribute, wrapper)
        yield recorder
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def _handler_wrapper(recorder: Recorder, original: Callable) -> Callable:
    """The HTTP handler span, parented on the client span named in the header."""

    @functools.wraps(original)
    def do_post(handler) -> None:
        if not recorder.active:
            return original(handler)
        header = handler.headers.get(SPAN_HEADER)
        parent = int(header) if header else None
        span = recorder.open("service.http_handler", parent=parent, request=parent)
        try:
            return original(handler)
        finally:
            recorder.close(span)

    return do_post


# ------------------------------------------------------------------ analysis
def covered(interval: tuple[float, float], children: Iterable[tuple[float, float]]) -> float:
    """Length of the union of ``children`` clipped to ``interval``."""
    low, high = interval
    clipped = sorted(
        (max(low, start), min(high, end))
        for start, end in children
        if end > low and start < high
    )
    total = 0.0
    current_start = current_end = None
    for start, end in clipped:
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its children cover (children on any thread)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: (span.end - span.start) - covered((span.start, span.end),
                                                   children.get(span.id, ()))
        for span in spans
    }


def root_kinds(spans: Sequence[Span]) -> dict[int, str]:
    """Span id -> the name of the root span it descends from."""
    kinds: dict[int, str] = {}
    for span in sorted(spans, key=lambda span: span.id):
        kinds[span.id] = span.name if span.parent is None else kinds.get(span.parent, "orphan")
    return kinds


@dataclass
class Totals:
    """What the spans of one name under one kind of root added up to."""

    calls: int = 0
    self_seconds: float = 0.0
    seconds: float = 0.0
    value: int = 0


def aggregate(spans: Sequence[Span]) -> dict[tuple[str, str], Totals]:
    """(root name, span name) -> totals over every matching span."""
    kinds = root_kinds(spans)
    selves = self_times(spans)
    totals: dict[tuple[str, str], Totals] = {}
    for span in spans:
        entry = totals.setdefault((kinds[span.id], span.name), Totals())
        entry.calls += 1
        entry.self_seconds += selves[span.id]
        entry.seconds += span.end - span.start
        entry.value += span.value
    return totals


def format_table(root: str, totals: dict[tuple[str, str], Totals], ops: int) -> str:
    """One layer table: self time and calls per op, and share of the ``root`` spans' time.

    The ``root`` row's self time is the part of the op no traced layer covers."""
    root_seconds = totals[(root, root)].seconds
    per = max(ops, 1)
    lines = [
        f"{root}: {ops} ops, {root_seconds * 1000 / per:.3f} ms per op",
        f"  {'span':34} {'self ms/op':>11} {'calls/op':>9} {'share':>7}",
    ]
    rows = sorted(
        ((name, entry) for (kind, name), entry in totals.items() if kind == root),
        key=lambda item: -item[1].self_seconds,
    )
    for name, entry in rows:
        label = f"{name} (unattributed)" if name == root else name
        lines.append(
            f"  {label:34} {entry.self_seconds * 1000 / per:11.3f} "
            f"{entry.calls / per:9.2f} {entry.self_seconds / root_seconds:7.1%}"
        )
    return "\n".join(lines)
