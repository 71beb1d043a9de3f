"""Event emission: the bridge between instrumented modules and spans.

An *event* is a dotted name plus free-form JSON-pure fields.
:func:`emit` delivers each event twice:

- to the ambient :class:`~repro.obs.trace.Span` (see
  :func:`repro.obs.trace.current_span`) as a point-in-time span event —
  ``Session.run`` always opens one (``engine.execute``), so a run's
  span *is* its event record, and
  :class:`~repro.obs.recorder.RunRecorder` digests it;
- to a standard :mod:`logging` logger (the instrumented module's own,
  so records carry the ``repro.engine.runner`` / ``repro.engine.cache``
  / ... hierarchy), making the same stream visible to ``-v`` verbose
  runs and any ordinary logging configuration.

Emission is cheap when nobody listens: one context-variable read plus
``Logger.isEnabledFor``.  Instrumentation sits at run/chunk granularity
(never per trial), so the hot kernels stay untouched.
"""

from __future__ import annotations

import logging
from typing import Any

from .trace import current_span

__all__ = ["emit"]

_FALLBACK_LOGGER = logging.getLogger("repro.obs")


def _jsonable(value: Any) -> Any:
    """Coerce a field value to a JSON-pure shape.

    Numpy scalars/arrays are converted through their stdlib protocols
    (``item``/``tolist``) so :mod:`repro.obs` itself needs no numpy
    import; unknown objects fall back to ``repr``.
    """
    if value is None or type(value) in (bool, int, float, str):
        return value
    if isinstance(value, (bool, int, float, str)):
        # Scalar subclasses (numpy's float64 *is* a float) normalize to
        # the exact builtin so telemetry compares bit-for-bit after a
        # JSON round-trip.
        item = getattr(value, "item", None)
        if callable(item):
            return _jsonable(item())
        for base in (bool, int, float, str):
            if isinstance(value, base):
                return base(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    item = getattr(value, "item", None)
    if callable(item) and getattr(value, "shape", None) == ():
        return _jsonable(item())
    tolist = getattr(value, "tolist", None)
    if callable(tolist):
        return _jsonable(tolist())
    return repr(value)


def emit(
    event: str,
    /,
    *,
    logger: "logging.Logger | None" = None,
    level: int = logging.DEBUG,
    **fields: Any,
) -> None:
    """Record one structured event and log it through ``logger``.

    ``event`` is a dotted name (``"engine.run.start"``,
    ``"cache.hit"``, ...); ``fields`` are JSON-pure (or coercible)
    details, coerced once.  The event reaches the ambient span
    regardless of logging configuration; with no ambient span it is
    only logged.  The log line is a compact ``event k=v ...`` render at
    ``level`` (DEBUG for chatty per-shard events, INFO for run-level
    milestones, WARNING for trouble like corrupt cache entries).
    """
    span = current_span()
    clean = None
    if span is not None:
        clean = span.add_event(event, **fields).get("attrs", {})
    log = logger if logger is not None else _FALLBACK_LOGGER
    if log.isEnabledFor(level):
        if clean is None:
            clean = {key: _jsonable(value) for key, value in fields.items()}
        rendered = " ".join(f"{key}={_compact(value)}" for key, value in clean.items())
        log.log(level, "%s%s", event, f" {rendered}" if rendered else "")


def _compact(value: Any) -> str:
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."
