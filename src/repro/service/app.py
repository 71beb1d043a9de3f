"""The experiment service: submissions in, deduplicated results out.

:class:`ExperimentService` composes the service's pieces around one
shared :class:`~repro.api.session.Session` (hence one persistent
:class:`~repro.engine.executor.SharedExecutor` and one engine
:class:`~repro.engine.cache.ResultCache`):

- a :class:`~repro.service.queue.JobQueue` admitting specs with
  priorities, bounded capacity, and single-flight dedup by
  ``content_hash()``;
- a :class:`~repro.service.workers.WorkerPool` running jobs on the
  session via ``asyncio.to_thread`` with timeout/retry/cancellation;
- a :class:`~repro.service.store.ResultStore` serving completed
  results by hash with TTL'd eviction.

A submission takes the cheapest path available::

    store hit  ->  a synthetic done job, no queue, no engine
    in flight  ->  attach to the existing job (dedup coalesce)
    otherwise  ->  a new queued job (429 when the queue is full)

Every stage emits ``service.*`` telemetry through
:func:`repro.obs.emit`: it is logged, and an event raised while a job
span is ambient (a retry inside ``worker.run``, a store write inside
``store.write``) lands in that job's trace.  Each job's engine run
records into its own ``engine.execute`` span inside ``Session.run``, so
every ``Result`` carries its own ``meta["telemetry"]``.  Service-wide
counts live on ``GET /stats`` (queue and job counters) and
``GET /metrics``.

The service is asyncio-single-threaded at the control plane: submit,
job lookup, stats and shutdown all run on the event loop; only the
blocking engine work leaves it.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import time
from pathlib import Path
from typing import Optional

from repro.api.registry import get_experiment
from repro.api.result import RESULT_SCHEMA_VERSION
from repro.api.session import Session
from repro.api.spec import ExperimentSpec
from repro.obs import emit
from repro.obs.metrics import MetricsRegistry

from .instruments import ServiceInstruments
from .queue import Job, JobQueue
from .store import ResultStore
from .workers import WorkerPool

__all__ = ["ExperimentService"]

_log = logging.getLogger(__name__)

#: Terminal jobs older than this many TTL sweeps are dropped from the
#: id registry (their results live on in the store).
_HISTORY_LIMIT = 10_000


class ExperimentService:
    """Long-running, deduplicating front end over one shared session.

    Parameters
    ----------
    workers:
        Concurrent job executions (asyncio worker tasks).
    engine_workers:
        Process count of the shared session's engine executor.
    queue_capacity:
        Bound on queued (not yet running) jobs; hit -> 429.
    ttl_seconds:
        Result-store TTL (also forwarded to the engine cache's prune
        during housekeeping sweeps).
    job_timeout:
        Default per-attempt execution timeout (``None`` = unbounded).
    max_retries / retry_backoff:
        Transient-failure retry policy (see
        :class:`~repro.service.workers.WorkerPool`).
    cache_dir:
        Engine result-cache directory for the shared session; also the
        parent of the store's disk mirror (``<cache_dir>/results/``).
        ``None`` keeps both layers memory-only.
    session:
        Inject a pre-built session (tests); otherwise one is created
        and owned (closed on :meth:`stop`).
    registry:
        Inject a :class:`~repro.obs.metrics.MetricsRegistry` for the
        service's instruments (tests asserting exact counts); the
        process-global default registry otherwise.  ``GET /metrics``
        renders whichever is in use.
    trace_dir:
        Optional directory; when set, every settled job's trace is
        persisted as ``<trace_dir>/<job_id>.json`` (span JSON + Chrome
        ``traceEvents`` in one payload, see
        :meth:`repro.obs.trace.Trace.export`).
    profile_dir:
        Optional directory; when set, every executed job runs with
        ``profile=True`` and its profile payload (sampled stacks,
        memory watermarks, process deltas) is persisted as
        ``<profile_dir>/<job_id>.json`` and served at
        ``GET /jobs/{id}/profile``.  Profiling is observational only —
        results and dedup hashes are unchanged.
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        engine_workers: int = 1,
        queue_capacity: int = 1024,
        ttl_seconds: "float | None" = 3600.0,
        job_timeout: "float | None" = None,
        max_retries: int = 2,
        retry_backoff: float = 0.1,
        cache_dir: "str | Path | None" = None,
        session: "Session | None" = None,
        registry: "MetricsRegistry | None" = None,
        trace_dir: "str | Path | None" = None,
        profile_dir: "str | Path | None" = None,
    ):
        self.instruments = ServiceInstruments(registry)
        self._trace_dir = Path(trace_dir) if trace_dir is not None else None
        self._profile_dir = (
            Path(profile_dir) if profile_dir is not None else None
        )
        self._owns_session = session is None
        self.session = session or Session(
            workers=engine_workers, cache_dir=cache_dir
        )
        store_root = (
            Path(cache_dir) / "results" if cache_dir is not None else None
        )
        self.store = ResultStore(
            ttl_seconds=ttl_seconds,
            root=store_root,
            engine_cache=self.session.cache,
        )
        self.queue = JobQueue(capacity=queue_capacity)
        self.pool = WorkerPool(
            self.queue,
            self._execute,
            workers=workers,
            job_timeout=job_timeout,
            max_retries=max_retries,
            retry_backoff=retry_backoff,
            on_success=self._on_success,
            on_finish=self._on_finish,
            instruments=self.instruments,
        )
        self._jobs: "dict[str, Job]" = {}
        self._synthetic = 0  # store-served submissions (no queue entry)
        self._housekeeper: "asyncio.Task | None" = None
        self._started = False
        self._started_at: "float | None" = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spawn workers and housekeeping."""
        if self._started:
            return
        self._started = True
        self._started_at = time.time()
        if self._trace_dir is not None:
            self._trace_dir.mkdir(parents=True, exist_ok=True)
        if self._profile_dir is not None:
            self._profile_dir.mkdir(parents=True, exist_ok=True)
        emit(
            "service.start",
            logger=_log,
            level=logging.INFO,
            workers=self.pool.workers,
            engine_workers=self.session.workers,
            queue_capacity=self.queue.capacity,
            ttl_seconds=self.store.ttl_seconds,
        )
        self.pool.start()
        interval = (
            min(max(self.store.ttl_seconds / 4.0, 1.0), 60.0)
            if self.store.ttl_seconds is not None
            else 60.0
        )
        self._housekeeper = asyncio.get_running_loop().create_task(
            self._housekeeping(interval), name="repro-service-housekeeping"
        )

    async def stop(self, *, drain: bool = True) -> None:
        """Shut down: close admission, settle work, release the engine.

        ``drain=True`` (graceful) lets workers finish everything already
        admitted — running *and* queued — before exiting; ``drain=False``
        cancels queued jobs and only waits out the running ones.
        """
        if not self._started:
            return
        emit(
            "service.stop",
            logger=_log,
            level=logging.INFO,
            drain=drain,
            queued=self.queue.depth,
            active=self.pool.active,
        )
        self.queue.close()
        if not drain:
            self.queue.cancel_pending()
        await self.pool.join()
        if self._housekeeper is not None:
            self._housekeeper.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._housekeeper
            self._housekeeper = None
        if self._owns_session:
            self.session.close()
        self._started = False

    async def _housekeeping(self, interval: float) -> None:
        while True:
            await asyncio.sleep(interval)
            evicted = self.store.sweep()
            self.instruments.store_entries.set(len(self.store))
            self._trim_history()
            if evicted:
                emit(
                    "service.sweep",
                    logger=_log,
                    evicted=evicted,
                    store_entries=len(self.store),
                )

    def _trim_history(self) -> None:
        """Cap the job-id registry; only terminal jobs are dropped."""
        excess = len(self._jobs) - _HISTORY_LIMIT
        if excess <= 0:
            return
        for job_id in [
            jid for jid, job in self._jobs.items() if job.done
        ][:excess]:
            del self._jobs[job_id]

    # ------------------------------------------------------------------
    # Submission / lookup
    # ------------------------------------------------------------------
    def submit(
        self,
        spec: ExperimentSpec,
        *,
        priority: int = 0,
        timeout: "float | None" = None,
    ) -> "tuple[Job, str]":
        """Admit one spec; returns ``(job, via)``.

        ``via`` says which path served it: ``"store"`` (already
        completed, synthetic done job), ``"coalesced"`` (attached to an
        in-flight job) or ``"queued"`` (new work).  Unknown experiment
        names raise :class:`~repro.api.registry.UnknownExperimentError`
        here, at admission, not inside a worker; a full queue raises
        :class:`~repro.service.queue.QueueFullError`.
        """
        get_experiment(spec.experiment)  # admission-time validation
        spec_hash = spec.content_hash()
        admitted = time.time()
        ins = self.instruments
        emit(
            "service.submit",
            logger=_log,
            hash=spec_hash,
            experiment=spec.experiment,
            priority=priority,
        )
        stored = self.store.get_json(spec_hash)
        if stored is not None:
            ins.store_lookups_total.labels(result="hit").inc()
            ins.submissions_total.labels(via="store").inc()
            ins.jobs_total.labels(outcome="deduped").inc()
            job = self._synthetic_job(spec, stored)
            job.trace.add_span(
                "admit",
                start=admitted,
                end=time.time(),
                via="store",
                experiment=spec.experiment,
                hash=spec_hash,
            )
            self._persist_trace(job)
            return job, "store"
        ins.store_lookups_total.labels(result="miss").inc()
        job, deduped = self.queue.submit(
            spec, priority=priority, timeout=timeout
        )
        if deduped:
            self.store.note_coalesced()
            ins.submissions_total.labels(via="coalesced").inc()
            ins.jobs_total.labels(outcome="deduped").inc()
            emit(
                "service.dedup_hit",
                logger=_log,
                hash=spec_hash,
                job=job.id,
                submissions=job.submissions,
            )
        else:
            self._jobs[job.id] = job
            ins.submissions_total.labels(via="queued").inc()
            ins.queue_depth.set(self.queue.depth)
        job.trace.add_span(
            "admit",
            start=admitted,
            end=time.time(),
            via="coalesced" if deduped else "queued",
            experiment=spec.experiment,
            hash=spec_hash,
            priority=priority,
            submissions=job.submissions,
        )
        return job, "coalesced" if deduped else "queued"

    def _synthetic_job(self, spec: ExperimentSpec, text: str) -> Job:
        """A pre-completed job wrapping a store hit (keeps the job API
        uniform: every submission yields an awaitable job).  It holds
        the store's JSON text itself, never a parsed copy."""
        self._synthetic += 1
        job = Job(f"s{self._synthetic:06d}", spec)
        job.from_store = True
        job.mark_running()
        job.resolve_json(text)
        self._jobs[job.id] = job
        return job

    def job(self, job_id: str) -> "Optional[Job]":
        return self._jobs.get(job_id)

    def cancel(self, job_id: str) -> "Optional[bool]":
        """Cancel by id: ``None`` unknown, else the queue's verdict."""
        job = self._jobs.get(job_id)
        if job is None:
            return None
        if job.done:
            return False
        verdict = self.queue.cancel(job)
        if verdict:
            # Cancelled while queued: the job never reaches a worker,
            # so account for it (and persist its trace) here.
            self.instruments.jobs_total.labels(outcome="cancelled").inc()
            self.instruments.queue_depth.set(self.queue.depth)
            self._persist_trace(job)
        return verdict

    # ------------------------------------------------------------------
    # Execution (worker thread + loop-side hooks)
    # ------------------------------------------------------------------
    def _execute(self, job: Job):
        """Blocking engine run (called from a worker thread)."""
        self.instruments.engine_runs_total.inc()
        if self._profile_dir is not None:
            return self.session.run(job.spec, profile=True)
        return self.session.run(job.spec)

    def _on_success(self, job: Job, result) -> "Optional[str]":
        """Store the result before the job resolves (event loop); the
        job then resolves with the stored JSON text, shared with the
        store instead of pinning the :class:`Result` object.

        Runs inside the worker's ``worker.run`` span context, so the
        ``store.write`` span nests under it automatically.
        """
        with job.trace.span("store.write", hash=job.hash):
            spec_hash = self.store.put(result)
        self.instruments.store_entries.set(len(self.store))
        return self.store.peek(spec_hash)

    def _on_finish(self, job: Job) -> None:
        """Terminal-state hook (event loop): persist trace + profile."""
        self._persist_trace(job)
        self._persist_profile(job)

    def _persist_trace(self, job: Job) -> None:
        """Best-effort write of ``<trace_dir>/<job_id>.json``."""
        if self._trace_dir is None:
            return
        path = self._trace_dir / f"{job.id}.json"
        try:
            self._trace_dir.mkdir(parents=True, exist_ok=True)
            path.write_text(
                json.dumps(job.trace.export(), sort_keys=True),
                encoding="utf-8",
            )
        except OSError as exc:
            _log.warning("could not persist trace for job %s: %r", job.id, exc)

    def job_profile(self, job_id: str) -> "Optional[dict]":
        """The job's profile payload (``GET /jobs/{id}/profile``).

        ``None`` when the job is unknown, not settled, or ran without
        profiling (no ``--profile-dir``).
        """
        job = self._jobs.get(job_id)
        if job is None or job.result is None:
            return None
        telemetry = getattr(job.result, "telemetry", None)
        if telemetry is None:
            return None
        return (telemetry() or {}).get("profile")

    def _persist_profile(self, job: Job) -> None:
        """Best-effort write of ``<profile_dir>/<job_id>.json``."""
        if self._profile_dir is None:
            return
        profile = self.job_profile(job.id)
        if profile is None:
            return
        path = self._profile_dir / f"{job.id}.json"
        try:
            self._profile_dir.mkdir(parents=True, exist_ok=True)
            path.write_text(
                json.dumps(profile, sort_keys=True), encoding="utf-8"
            )
        except OSError as exc:
            _log.warning(
                "could not persist profile for job %s: %r", job.id, exc
            )

    def metrics_text(self) -> str:
        """The instruments' Prometheus exposition (``GET /metrics``)."""
        return self.instruments.render()

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """The ``GET /stats`` payload: queue, jobs, store, session."""
        states: "dict[str, int]" = {}
        for job in self._jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "uptime_seconds": (
                round(time.time() - self._started_at, 3)
                if self._started_at is not None
                else None
            ),
            "queue": {
                "depth": self.queue.depth,
                "capacity": self.queue.capacity,
                "submitted": self.queue.submitted,
                "coalesced": self.queue.coalesced,
                "closed": self.queue.closed,
            },
            "jobs": {
                "tracked": len(self._jobs),
                "active": self.pool.active,
                "executed": self.pool.executed,
                "from_store": self._synthetic,
                "by_state": states,
            },
            "dedup": {
                "hits": self.queue.coalesced,
                "store_hits": self.store.hits,
            },
            "store": self.store.stats(),
            "session": {
                "engine_workers": self.session.workers,
                "runs_started": self.session.runs_started,
                "runs_completed": self.session.runs_completed,
            },
        }

    def healthz(self) -> dict:
        from repro import __version__

        return {
            "status": "ok" if self._started else "stopped",
            "version": __version__,
            "schema_version": RESULT_SCHEMA_VERSION,
            "uptime_seconds": (
                round(time.time() - self._started_at, 3)
                if self._started_at is not None
                else None
            ),
            "workers": self.pool.workers,
            "queue_depth": self.queue.depth,
            "runs_completed": self.session.runs_completed,
        }

    def __repr__(self) -> str:
        return (
            f"ExperimentService(workers={self.pool.workers}, "
            f"queue={self.queue!r}, store={self.store!r})"
        )
