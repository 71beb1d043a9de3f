"""Run telemetry: structured events, per-run digests, module logging.

``repro.obs`` is the observability core the rest of the package reports
through.  It is deliberately stdlib-only (``logging``, ``contextvars``,
``time``, ``json``) so instrumentation can live in the hottest modules
without adding dependencies or import weight.

A run has one record, its span:

:func:`emit`
    The one-line instrumentation hook.  Modules call
    ``emit("engine.run.start", logger=_log, key=..., n_trials=...)``;
    the event is appended to the ambient :class:`Span` (if any) and
    logged through the module's own logger, so ``python -m repro run
    -v`` and plain ``logging`` configuration both see the stream.
    :class:`repro.api.Session` opens an ``engine.execute`` span around
    every run, so deep engine code needs no recorder parameter threaded
    through — and code running outside any span still logs normally
    and pays one context-variable read.

:class:`RunRecorder`
    A read-only digest of one run's span: its events as dicts, the
    JSON-lines stream, and the JSON-pure :meth:`~RunRecorder.summary`
    that :class:`repro.api.Session` attaches to every result as
    ``meta["telemetry"]``.

Two further pieces extend the per-run view to the fleet level:

:mod:`repro.obs.metrics`
    A process-global, thread-safe :class:`MetricsRegistry` of counters,
    gauges and fixed-bucket histograms with labels, rendered in
    Prometheus text exposition format (the service's ``GET /metrics``).

:mod:`repro.obs.trace`
    :class:`Trace`/:class:`Span` trees propagated through
    :mod:`contextvars` (across ``asyncio.to_thread``), exported as span
    JSON and Chrome ``trace_event`` format.  A service job's trace nests
    the run's span under the job's own spans; a CLI run's trace is that
    one span.

Telemetry is observational by contract: it never participates in cache
keys and never lands in ``Result.data``, so recording cannot change any
result (see DESIGN.md §4).
"""

from .events import emit
from .metrics import MetricsRegistry, default_registry, parse_exposition
from .profile import (
    DEFAULT_HZ,
    RunProfiler,
    SamplingProfiler,
    process_usage,
    usage_delta,
)
from .recorder import TELEMETRY_SCHEMA_VERSION, RunRecorder
from .trace import (
    TRACE_SCHEMA_VERSION,
    Span,
    Trace,
    current_span,
    current_trace,
    new_trace_id,
    use_span,
)

__all__ = [
    "DEFAULT_HZ",
    "MetricsRegistry",
    "RunProfiler",
    "SamplingProfiler",
    "Span",
    "TELEMETRY_SCHEMA_VERSION",
    "TRACE_SCHEMA_VERSION",
    "RunRecorder",
    "Trace",
    "current_span",
    "current_trace",
    "default_registry",
    "emit",
    "new_trace_id",
    "parse_exposition",
    "process_usage",
    "usage_delta",
    "use_span",
]
