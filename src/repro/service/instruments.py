"""Fleet-level metric handles for one :class:`ExperimentService`.

:class:`ServiceInstruments` registers every service metric family on a
:class:`~repro.obs.metrics.MetricsRegistry` — the process-global default
in production, an injected fresh one in tests that assert exact counts —
and exposes them as plain attributes so instrumentation sites read as
one line (``instruments.jobs_total.labels(outcome="ok").inc()``).

Naming follows DESIGN.md §6: ``repro_<subsystem>_<name>_<unit>``, label
sets kept low-cardinality (outcomes, phases, experiment names — never
job ids or spec hashes).

The families
------------

- ``repro_service_submissions_total{via}`` — every admitted submission
  by serving path (``queued`` / ``coalesced`` / ``store``); the sum of
  ``coalesced`` + ``store`` is the service's dedup hit count.
- ``repro_jobs_total{outcome}`` — terminal job outcomes (``ok`` /
  ``error`` / ``timeout`` / ``cancelled``) plus one ``deduped``
  increment per submission that produced no new work.
- ``repro_job_latency_seconds{experiment}`` — end-to-end latency
  (admission to terminal state) of executed jobs.
- ``repro_job_phase_seconds{phase}`` — per-phase latency
  (``queue.wait`` / ``worker.run`` / ``store.write``).
- ``repro_queue_depth`` / ``repro_queue_wait_seconds`` — queued-job
  gauge and the admission-to-claim wait distribution.
- ``repro_workers_busy`` / ``repro_workers_total`` /
  ``repro_worker_busy_seconds_total`` — utilization: busy worker gauge
  against the pool size, plus accumulated busy seconds.
- ``repro_job_retries_total`` — transient-failure retry attempts.
- ``repro_service_store_lookups_total{result}`` — admission-time result
  -store lookups (``hit`` / ``miss``).
- ``repro_store_entries`` — live result-store entries.
- ``repro_engine_runs_total`` — jobs that actually reached
  ``Session.run`` (the non-deduplicated work; the engine cache's own
  hit/miss split lives in
  ``repro_store_ops_total{namespace="engine",op="read"}``).
- ``repro_process_cpu_seconds`` / ``repro_process_max_rss_bytes`` —
  process-level accounting (CPU via ``time.process_time``, RSS
  high-water mark via ``getrusage``), refreshed on every scrape.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.profile import process_usage

__all__ = ["ServiceInstruments"]

#: Queue waits and phase timings skew much shorter than engine runs.
_LATENCY_BUCKETS = (
    0.001,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
    120.0,
)


class ServiceInstruments:
    """All metric families one service instance reports through."""

    def __init__(self, registry: "MetricsRegistry | None" = None):
        self.registry = registry if registry is not None else default_registry()
        r = self.registry
        self.submissions_total = r.counter(
            "repro_service_submissions_total",
            "Admitted submissions by serving path",
            ("via",),
        )
        self.jobs_total = r.counter(
            "repro_jobs_total",
            "Terminal job outcomes (plus deduped submissions)",
            ("outcome",),
        )
        self.job_latency_seconds = r.histogram(
            "repro_job_latency_seconds",
            "End-to-end job latency, admission to terminal state",
            ("experiment",),
            buckets=_LATENCY_BUCKETS,
        )
        self.job_phase_seconds = r.histogram(
            "repro_job_phase_seconds",
            "Per-phase job latency",
            ("phase",),
            buckets=_LATENCY_BUCKETS,
        )
        self.queue_depth = r.gauge(
            "repro_queue_depth",
            "Jobs queued and not yet claimed by a worker",
        )
        self.queue_wait_seconds = r.histogram(
            "repro_queue_wait_seconds",
            "Admission-to-claim wait of executed jobs",
            buckets=_LATENCY_BUCKETS,
        )
        self.workers_busy = r.gauge(
            "repro_workers_busy",
            "Workers currently executing a job",
        )
        self.workers_total = r.gauge(
            "repro_workers_total",
            "Configured worker-pool size",
        )
        self.worker_busy_seconds_total = r.counter(
            "repro_worker_busy_seconds_total",
            "Accumulated worker seconds spent executing jobs",
        )
        self.job_retries_total = r.counter(
            "repro_job_retries_total",
            "Transient-failure retry attempts",
        )
        self.store_lookups_total = r.counter(
            "repro_service_store_lookups_total",
            "Admission-time result-store lookups",
            ("result",),
        )
        self.store_entries = r.gauge(
            "repro_store_entries",
            "Live result-store entries",
        )
        self.engine_runs_total = r.counter(
            "repro_engine_runs_total",
            "Jobs executed on the shared session (non-deduplicated work)",
        )
        self.process_cpu_seconds = r.gauge(
            "repro_process_cpu_seconds",
            "Process-wide CPU time consumed (time.process_time)",
        )
        self.process_max_rss_bytes = r.gauge(
            "repro_process_max_rss_bytes",
            "Process RSS high-water mark (getrusage ru_maxrss)",
        )

    def update_process(self) -> None:
        """Refresh the process-level gauges (called on every scrape)."""
        usage = process_usage()
        self.process_cpu_seconds.set(round(usage["cpu_seconds"], 6))
        if usage["max_rss_bytes"] is not None:
            self.process_max_rss_bytes.set(usage["max_rss_bytes"])

    def render(self) -> str:
        """The registry's Prometheus text exposition (``GET /metrics``)."""
        self.update_process()
        return self.registry.render()
