"""Async experiment service: dedup job queue, TTL'd result store, HTTP API.

``repro.service`` turns the blocking ``Session.run()`` library into a
long-running system: thousands of concurrent spec submissions flow
through a priority queue that **coalesces duplicate work in flight**
(single-flight dedup keyed on
:meth:`~repro.api.spec.ExperimentSpec.content_hash`), asyncio worker
tasks drain the queue onto one shared
:class:`~repro.api.session.Session` (one warm
:class:`~repro.engine.executor.SharedExecutor`, one engine cache), and
completed results are served from a TTL'd
:class:`~repro.service.store.ResultStore` without re-running anything.

Layers (stdlib-only — asyncio streams, ``http.client``, ``json``):

- :mod:`~repro.service.queue` — :class:`JobQueue`/:class:`Job`:
  priorities, bounded capacity, single-flight dedup.
- :mod:`~repro.service.store` — :class:`ResultStore`: TTL/eviction,
  hit/miss counters, lossless Result JSON round-trip, optional disk
  mirror.
- :mod:`~repro.service.app` — :class:`ExperimentService`: the control
  plane (``submit`` → store hit | coalesce | queue), the worker tasks
  that run and settle each job (``to_thread`` execution with per-job
  timeout, bounded retry-with-backoff, cancellation), housekeeping
  (store TTL sweep plus engine-cache pruning) and ``stats``/``healthz``.
- :mod:`~repro.service.instruments` — :class:`ServiceInstruments`: the
  service's metric families (outcome counters, latency/queue-wait
  histograms, worker-utilization gauges) on a
  :class:`~repro.obs.metrics.MetricsRegistry`; every job also carries a
  :class:`~repro.obs.trace.Trace` whose spans
  (``admit``/``queue.wait``/``worker.run``/``engine.execute``/
  ``store.write``) follow it through the stack.
- :mod:`~repro.service.server` / :mod:`~repro.service.client` — the
  HTTP+JSON API (``POST /jobs``, ``GET /jobs/{id}``,
  ``GET /jobs/{id}/trace``, ``GET /results/{hash}``, ``GET /healthz``,
  ``GET /stats``, ``GET /metrics``) and its blocking client.
- :mod:`~repro.service.runner` — :func:`serve_forever`, the
  ``python -m repro serve`` core with graceful SIGINT/SIGTERM drain.

Quickstart::

    # terminal 1
    python -m repro serve --port 8765 --workers 4 --ttl 3600

    # terminal 2 (or any script)
    from repro.service import ServiceClient
    client = ServiceClient(port=8765)
    job = client.run("fig3.coverage", trials=4096, seed=2007)
    print(job["result"]["data"]["estimates"])
"""

from .app import ExperimentService
from .client import JobFailedError, ServiceClient, ServiceError
from .instruments import ServiceInstruments
from .queue import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TIMEOUT,
    Job,
    JobQueue,
    QueueClosedError,
    QueueFullError,
)
from .runner import serve_forever
from .server import ServiceServer
from .store import ResultStore

__all__ = [
    "CANCELLED",
    "DONE",
    "FAILED",
    "QUEUED",
    "RUNNING",
    "TIMEOUT",
    "ExperimentService",
    "Job",
    "JobFailedError",
    "JobQueue",
    "QueueClosedError",
    "QueueFullError",
    "ResultStore",
    "ServiceClient",
    "ServiceError",
    "ServiceInstruments",
    "ServiceServer",
    "serve_forever",
]
