"""Per-job tracing: trace ids, spans, and Chrome trace_event export.

A :class:`Trace` follows one unit of work (a service job, a CLI run)
through every stage that touches it.  Spans are created two ways:

- :meth:`Trace.span` — a context manager for code you are inside of
  (``with trace.span("worker.run"): ...``).  The active span is kept in
  a :mod:`contextvars` variable, so spans nest automatically and the
  ambient span **crosses ``asyncio.to_thread``** (``to_thread`` runs
  its callable under a copy of the caller's context) — the service
  opens ``worker.run`` on the event loop and ``Session.run`` opens
  ``engine.execute`` as its child from inside the worker thread without
  any explicit plumbing.
- :meth:`Trace.add_span` — an explicitly-timed span for intervals
  observed after the fact (``queue.wait`` is recorded when the worker
  claims the job, from the job's enqueue timestamp).

Spans carry free-form JSON-pure attributes and point-in-time *events*
(:meth:`Span.add_event`).  :func:`repro.obs.emit` appends to the
ambient span, so the ``engine.execute`` span
:class:`~repro.api.session.Session` opens for every run is that run's
only event record (:class:`~repro.obs.recorder.RunRecorder` digests
it).

Export formats:

- :meth:`Trace.to_dict` — the project's own span JSON
  (``{"trace_id", "spans": [...]}``, schema :data:`TRACE_SCHEMA_VERSION`);
- :meth:`Trace.to_chrome` — Chrome ``trace_event`` JSON (complete
  ``"X"`` events in microseconds, instant ``"i"`` events for span
  events) loadable in ``chrome://tracing`` / Perfetto;
- :meth:`Trace.export` — one payload carrying both (the top-level
  ``traceEvents`` key is what trace viewers look for; they ignore the
  extra keys), which is what ``serve --cache-dir DIR`` persists per job
  as ``DIR/traces/<job_id>.json`` and
  ``python -m repro trace`` renders.

All mutation is lock-guarded: the event loop, worker threads and engine
instrumentation append spans/events concurrently.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import threading
import time
import uuid
from typing import Any, Iterator, Optional

__all__ = [
    "Span",
    "TRACE_SCHEMA_VERSION",
    "Trace",
    "current_span",
    "current_trace",
    "new_trace_id",
    "use_span",
]

#: Bump when the exported span layout changes incompatibly.
TRACE_SCHEMA_VERSION = 1

#: The innermost active span for this execution context (None outside
#: traced work).  ``asyncio.to_thread`` copies the context, so the
#: variable propagates into worker threads.
_ACTIVE_SPAN: "contextvars.ContextVar[Span | None]" = contextvars.ContextVar(
    "repro_obs_span", default=None
)


def new_trace_id() -> str:
    """A fresh 32-hex-character trace id."""
    return uuid.uuid4().hex


def current_span() -> "Optional[Span]":
    """The innermost active span in this context, if any."""
    return _ACTIVE_SPAN.get()


def current_trace() -> "Optional[Trace]":
    """The trace of the innermost active span, if any."""
    span = _ACTIVE_SPAN.get()
    return span.trace if span is not None else None


@contextlib.contextmanager
def use_span(span: "Span") -> "Iterator[Span]":
    """Install ``span`` as the ambient span for this context (without
    finishing it on exit — lifecycle stays with the caller)."""
    token = _ACTIVE_SPAN.set(span)
    try:
        yield span
    finally:
        _ACTIVE_SPAN.reset(token)


def _jsonable_attrs(attrs: dict) -> dict:
    from .events import _jsonable

    return {str(k): _jsonable(v) for k, v in attrs.items()}


def _event_dict(point: tuple) -> dict:
    """A span event's JSON form from its stored ``(name, t, attrs)``."""
    name, t, attrs = point
    return {"name": name, "t": t, "attrs": attrs} if attrs else {"name": name, "t": t}


class Span:
    """One named interval inside a :class:`Trace`."""

    __slots__ = (
        "trace",
        "name",
        "span_id",
        "parent_id",
        "start",
        "end",
        "attrs",
        "events",
        "thread",
    )

    def __init__(
        self,
        trace: "Trace",
        name: str,
        *,
        span_id: str,
        parent_id: "str | None",
        start: float,
        attrs: "dict | None" = None,
    ):
        self.trace = trace
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: "float | None" = None
        self.attrs = dict(attrs or {})
        # (name, t, attrs) tuples: a long-lived service keeps every
        # settled job's trace, so events are stored compactly.
        self.events: "list[tuple]" = []
        self.thread = threading.current_thread().name

    # ------------------------------------------------------------------
    @property
    def trace_id(self) -> str:
        return self.trace.trace_id

    @property
    def duration(self) -> "float | None":
        return None if self.end is None else self.end - self.start

    def set(self, **attrs: Any) -> "Span":
        """Attach (JSON-pure) attributes to the span."""
        self.attrs.update(_jsonable_attrs(attrs))
        return self

    def add_event(self, name: str, /, **attrs: Any) -> dict:
        """Record a point-in-time event inside the span."""
        point = (str(name), self.trace._now(), _jsonable_attrs(attrs) if attrs else None)
        with self.trace._lock:
            self.events.append(point)
        return _event_dict(point)

    def finish(self, end: "float | None" = None) -> "Span":
        """Close the span (idempotent) and register it with its trace."""
        if self.end is None:
            self.end = self.trace._now() if end is None else end
            self.trace._register(self)
        return self

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        payload = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": (
                round(self.duration, 9) if self.duration is not None else None
            ),
            "thread": self.thread,
        }
        if self.attrs:
            payload["attrs"] = _jsonable_attrs(self.attrs)
        if self.events:
            payload["events"] = [_event_dict(point) for point in self.events]
        return payload

    def __repr__(self) -> str:
        state = "open" if self.end is None else f"{self.duration:.6f}s"
        return f"Span({self.name!r}, {self.span_id}, {state})"


class Trace:
    """All spans for one traced unit of work."""

    def __init__(self, trace_id: "str | None" = None, *, name: str = ""):
        self.trace_id = trace_id or new_trace_id()
        self.name = name
        # One wall-clock epoch per trace; every subsequent stamp is this
        # epoch plus a perf_counter offset.  Spans therefore keep
        # absolute timestamps (Chrome export unchanged) but durations
        # are monotonic — an NTP clock step mid-trace cannot produce
        # negative or skewed spans.
        self.created = time.time()
        self._perf_epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._spans: "list[Span]" = []
        self._ids = itertools.count(1)

    def _now(self) -> float:
        """Wall-clock-anchored monotonic timestamp for this trace."""
        return self.created + (time.perf_counter() - self._perf_epoch)

    # ------------------------------------------------------------------
    def _new_span(
        self,
        name: str,
        *,
        start: float,
        parent_id: "str | None",
        attrs: "dict | None",
    ) -> Span:
        with self._lock:
            span_id = f"{next(self._ids):04x}"
        return Span(
            self,
            name,
            span_id=span_id,
            parent_id=parent_id,
            start=start,
            attrs=_jsonable_attrs(attrs or {}),
        )

    def _register(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> "Iterator[Span]":
        """Open a child of the ambient span, activate it, finish on exit.

        An exception escaping the block is recorded as ``error`` on the
        span (and re-raised); the span still finishes, so a failed job's
        trace shows where it died.
        """
        parent = _ACTIVE_SPAN.get()
        parent_id = (
            parent.span_id
            if parent is not None and parent.trace is self
            else None
        )
        span = self._new_span(
            name, start=self._now(), parent_id=parent_id, attrs=attrs
        )
        token = _ACTIVE_SPAN.set(span)
        try:
            yield span
        except BaseException as exc:
            span.set(error=repr(exc))
            raise
        finally:
            _ACTIVE_SPAN.reset(token)
            span.finish()

    def add_span(
        self,
        name: str,
        *,
        start: float,
        end: float,
        parent_id: "str | None" = None,
        **attrs: Any,
    ) -> Span:
        """Record an already-elapsed interval (e.g. ``queue.wait``)."""
        span = self._new_span(name, start=start, parent_id=parent_id, attrs=attrs)
        span.finish(end)
        return span

    # ------------------------------------------------------------------
    @property
    def spans(self) -> "list[Span]":
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        return len(self._spans)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The project's own span JSON (sorted by start time)."""
        spans = sorted(self.spans, key=lambda s: (s.start, s.span_id))
        return {
            "schema": TRACE_SCHEMA_VERSION,
            "trace_id": self.trace_id,
            "name": self.name,
            "created": self.created,
            "spans": [span.to_dict() for span in spans],
        }

    def to_chrome(self) -> "list[dict]":
        """Chrome ``trace_event`` array: ``"X"`` complete events plus
        ``"i"`` instants, microsecond timestamps relative to the trace's
        creation."""
        spans = sorted(self.spans, key=lambda s: (s.start, s.span_id))
        tids = {}
        events: "list[dict]" = []
        for span in spans:
            tid = tids.setdefault(span.thread, len(tids) + 1)
            end = span.end if span.end is not None else span.start
            event = {
                "name": span.name,
                "ph": "X",
                "ts": round((span.start - self.created) * 1e6, 3),
                "dur": round((end - span.start) * 1e6, 3),
                "pid": 1,
                "tid": tid,
                "args": {
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    **span.attrs,
                },
            }
            events.append(event)
            for name, t, attrs in span.events:
                instant = {
                    "name": f"{span.name}: {name}",
                    "ph": "i",
                    "ts": round((t - self.created) * 1e6, 3),
                    "pid": 1,
                    "tid": tid,
                    "s": "t",  # thread-scoped instant
                }
                if attrs:
                    instant["args"] = attrs
                events.append(instant)
        for thread_name, tid in tids.items():
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": thread_name},
                }
            )
        return events

    def export(self) -> dict:
        """One persisted payload serving both consumers.

        The top-level ``traceEvents`` array is what
        ``chrome://tracing``/Perfetto loads (extra keys are ignored by
        the viewers); the ``trace`` key carries the richer span JSON the
        timeline renderer and tests read.
        """
        return {
            "traceEvents": self.to_chrome(),
            "displayTimeUnit": "ms",
            "trace": self.to_dict(),
        }

    def __repr__(self) -> str:
        return (
            f"Trace({self.trace_id[:12]}…, name={self.name!r}, "
            f"spans={len(self._spans)})"
        )
