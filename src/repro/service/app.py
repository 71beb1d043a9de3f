"""The experiment service: submissions in, deduplicated results out.

:class:`ExperimentService` owns one shared
:class:`~repro.api.session.Session` (hence one persistent
:class:`~repro.engine.executor.SharedExecutor` and one engine
:class:`~repro.engine.cache.ResultCache`) and composes it with:

- a :class:`~repro.service.queue.JobQueue` admitting specs with
  priorities, bounded capacity, and single-flight dedup by
  ``content_hash()``;
- a :class:`~repro.service.store.ResultStore` serving completed
  results by hash with TTL'd eviction.

A submission takes the cheapest path available::

    store hit  ->  a synthetic done job, no queue, no engine
    in flight  ->  attach to the existing job (dedup coalesce)
    otherwise  ->  a new queued job (429 when the queue is full)

Queued jobs are run by ``workers`` asyncio tasks.  Each one loops
``await queue.get()``, runs the job's spec on the session through
``asyncio.to_thread`` and settles the job, so ``workers`` bounds the
concurrent engine runs across distinct specs (the engine's process
pool parallelizes within one run).  Per job attempt:

- **timeout** -- ``job.timeout`` (else the service's ``job_timeout``)
  bounds one attempt via ``asyncio.wait_for``.  A timed-out job settles
  as ``timeout``; its thread cannot be killed mid-``Session.run`` and
  finishes into the void (the result is discarded).
- **retry with backoff** -- exceptions in :data:`TRANSIENT` retry up to
  ``max_retries`` times after ``retry_backoff * 2**(attempt - 1)``
  seconds.  Anything else (a :class:`~repro.api.spec.SpecError`, a
  programming error) fails the job at once: re-running a deterministic
  failure cannot fix it.
- **cancellation** -- a cancel request against a running job lets the
  attempt finish, discards the outcome and settles the job as
  ``cancelled`` (queued jobs cancel at once inside the queue).

A successful attempt is written to the store first and the job then
settles with the store's JSON text, so a waiter never sees a done job
whose result is not stored.

Every transition emits ``service.*`` telemetry through
:func:`repro.obs.emit`: it is logged, and an event raised while a job
span is ambient (a retry inside ``worker.run``, a store write inside
``store.write``) lands in that job's trace.  Claiming a job records its
``queue.wait`` span; the execution runs inside ``worker.run``, which
crosses ``asyncio.to_thread`` into ``Session.run`` (its
``engine.execute`` span is a child).  Service-wide counts live on
``GET /stats`` (each number once) and on the
:class:`~repro.service.instruments.ServiceInstruments` families behind
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
import math
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Optional

from repro.api.registry import get_experiment
from repro.api.result import RESULT_SCHEMA_VERSION
from repro.api.session import Session
from repro.api.spec import ExperimentSpec
from repro.engine.blobstore import BlobStore, namespace_root
from repro.obs import emit
from repro.obs.metrics import MetricsRegistry

from .instruments import ServiceInstruments
from .queue import (
    CANCELLED,
    DONE,
    FAILED,
    TIMEOUT,
    Job,
    JobQueue,
    QueueClosedError,
)
from .store import ResultStore

__all__ = ["ExperimentService"]

_log = logging.getLogger(__name__)

#: Terminal jobs older than this many TTL sweeps are dropped from the
#: id registry (their results live on in the store).
_HISTORY_LIMIT = 10_000

#: Failures worth retrying: the next attempt may succeed where this one
#: did not (a killed engine worker breaks the pool; the retry runs on a
#: fresh one).
TRANSIENT = (ConnectionError, OSError, BrokenProcessPool)

#: Job terminal states -> ``repro_jobs_total`` outcome labels.
_OUTCOMES = {
    DONE: "ok",
    FAILED: "error",
    TIMEOUT: "timeout",
    CANCELLED: "cancelled",
}


def _check_timeout(value, name: str):
    """``value`` unchanged if it is ``None`` or a finite number of
    seconds > 0 (a ``bool`` is not a number here); else ``ValueError``."""
    if value is None:
        return None
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
        or value <= 0
    ):
        raise ValueError(
            f"{name} must be a finite number of seconds > 0, got {value!r}"
        )
    return value


class ExperimentService:
    """Long-running, deduplicating front end over one shared session.

    Parameters
    ----------
    workers:
        Concurrent job executions (asyncio worker tasks), >= 1.
    engine_workers:
        Process count of the shared session's engine executor.
    queue_capacity:
        Bound on queued (not yet running) jobs; hit -> 429.
    ttl_seconds:
        Result-store TTL; each housekeeping :meth:`sweep` also prunes
        the engine cache and the job traces by it.
    job_timeout:
        Default per-attempt execution timeout in seconds, a finite
        number > 0 (``None`` = unbounded); a job's own ``timeout``
        overrides it.
    max_retries / retry_backoff:
        Extra attempts after a :data:`TRANSIENT` failure (>= 0) and the
        base backoff in seconds (doubled per retry).
    cache_dir:
        The one on-disk root: the shared session's engine cache, the
        store's mirror (``results/``) and every settled job's trace
        (``traces/<job_id>.json``, see :meth:`repro.obs.trace.Trace.export`).
        ``None`` keeps everything in memory.
    session:
        Inject a pre-built session (tests); otherwise one is created
        and owned (closed on :meth:`stop`).
    registry:
        Inject a :class:`~repro.obs.metrics.MetricsRegistry` for the
        service's instruments (tests asserting exact counts); the
        process-global default registry otherwise.  ``GET /metrics``
        renders whichever is in use.
    profile:
        Run every executed job with ``profile=True``: its profile
        payload (the worker thread's sampled stacks, process deltas)
        lands in the stored result under ``meta.telemetry.profile``.
        Profiling is observational only — results and dedup hashes are
        unchanged.
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
        profile: bool = False,
    ):
        if workers < 1:
            raise ValueError("workers must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.workers = workers
        self.job_timeout = _check_timeout(job_timeout, "job_timeout")
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.instruments = ServiceInstruments(registry)
        self.instruments.workers_total.set(workers)
        self.profile = profile
        self._owns_session = session is None
        self.session = session or Session(
            workers=engine_workers, cache_dir=cache_dir
        )
        results = self._traces = None
        if cache_dir is not None:
            results = namespace_root(cache_dir, "results")
            self._traces = BlobStore(namespace_root(cache_dir, "traces"), "traces")
        self.store = ResultStore(ttl_seconds=ttl_seconds, root=results)
        self.queue = JobQueue(capacity=queue_capacity)
        self._jobs: "dict[str, Job]" = {}
        self._synthetic = 0  # store-served submissions (no queue entry)
        self._tasks: "list[asyncio.Task]" = []
        self.active = 0  # jobs currently executing
        self.executed = 0  # claimed jobs run to a terminal state
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
        emit(
            "service.start",
            logger=_log,
            level=logging.INFO,
            workers=self.workers,
            engine_workers=self.session.workers,
            queue_capacity=self.queue.capacity,
            ttl_seconds=self.store.ttl_seconds,
        )
        loop = asyncio.get_running_loop()
        self._tasks = [
            loop.create_task(self._worker(), name=f"repro-service-worker-{i}")
            for i in range(self.workers)
        ]
        interval = (
            min(max(self.store.ttl_seconds / 4.0, 1.0), 60.0)
            if self.store.ttl_seconds is not None
            else 60.0
        )
        self._housekeeper = loop.create_task(
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
            active=self.active,
        )
        self.queue.close()
        if not drain:
            self.queue.cancel_pending()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
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
            self.sweep()

    def sweep(self) -> int:
        """One housekeeping pass; returns the number of entries evicted.

        Expired store entries (memory and result mirrors) go first, then
        engine-cache entries and job traces older than the same TTL, so
        one loop bounds every tier; the job-id registry is capped too.
        """
        evicted = self.store.sweep()
        ttl = self.store.ttl_seconds
        for blobs in (self.session.cache, self._traces):
            if blobs is not None and ttl is not None:
                evicted += blobs.prune(ttl_seconds=ttl)
        self.instruments.store_entries.set(len(self.store))
        self._trim_history()
        if evicted:
            emit(
                "service.sweep",
                logger=_log,
                evicted=evicted,
                store_entries=len(self.store),
            )
        return evicted

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
        here, at admission, not inside a worker; a ``timeout`` that is
        not a finite number of seconds > 0 raises ``ValueError``; a full
        queue raises :class:`~repro.service.queue.QueueFullError`.
        """
        get_experiment(spec.experiment)  # admission-time validation
        timeout = _check_timeout(timeout, "timeout")
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
        job = Job(self.queue.new_id("s"), spec)
        job.from_store = True
        job.mark_running()
        job.resolve(text)
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
    # Execution: worker tasks on the loop, engine runs in threads
    # ------------------------------------------------------------------
    async def _worker(self) -> None:
        while True:
            try:
                job = await self.queue.get()
            except QueueClosedError:
                return
            try:
                await self._run_job(job)
            finally:
                self.queue.release(job)

    async def _run_job(self, job: Job) -> None:
        """Run one claimed job (``queue.get`` marked it running) to a
        terminal state, account for it and persist its artifacts."""
        ins = self.instruments
        self.active += 1
        wait = max(job.started - job.created, 0.0)
        job.trace.add_span(
            "queue.wait",
            start=job.created,
            end=job.started,
            priority=job.priority,
        )
        ins.queue_wait_seconds.observe(wait)
        ins.job_phase_seconds.labels(phase="queue.wait").observe(wait)
        ins.queue_depth.set(self.queue.depth)
        ins.workers_busy.inc()
        emit(
            "service.job_start",
            logger=_log,
            level=logging.INFO,
            job=job.id,
            hash=job.hash,
            experiment=job.spec.experiment,
            priority=job.priority,
            submissions=job.submissions,
        )
        timeout = job.timeout if job.timeout is not None else self.job_timeout
        claimed = time.monotonic()
        try:
            # worker.run is the ambient span for everything the job does
            # from here: Session.run's engine.execute child (via the
            # to_thread context copy) and the store.write span.
            with job.trace.span(
                "worker.run",
                job=job.id,
                experiment=job.spec.experiment,
                submissions=job.submissions,
            ) as span:
                await self._attempt(job, timeout)
                span.set(state=job.state, attempts=job.attempts)
        finally:
            self.active -= 1
            self.executed += 1
            elapsed = (
                round(job.finished - job.started, 6)
                if job.finished is not None
                else None
            )
            ins.workers_busy.dec()
            ins.worker_busy_seconds_total.inc(time.monotonic() - claimed)
            ins.jobs_total.labels(
                outcome=_OUTCOMES.get(job.state, job.state)
            ).inc()
            if elapsed is not None:
                ins.job_phase_seconds.labels(phase="worker.run").observe(elapsed)
                ins.job_latency_seconds.labels(
                    experiment=job.spec.experiment
                ).observe(job.finished - job.created)
            emit(
                "service.job_finish",
                logger=_log,
                level=logging.INFO,
                job=job.id,
                hash=job.hash,
                state=job.state,
                attempts=job.attempts,
                elapsed=elapsed,
                error=job.error,
            )
            self._persist_trace(job)

    async def _attempt(self, job: Job, timeout: "float | None") -> None:
        """Run attempts until the job settles (retrying transients)."""
        while True:
            job.attempts += 1
            try:
                result = await asyncio.wait_for(
                    asyncio.to_thread(self._execute, job), timeout
                )
            except asyncio.TimeoutError:
                job.reject(
                    TIMEOUT, f"attempt {job.attempts} exceeded {timeout}s"
                )
            except asyncio.CancelledError:
                job.reject(CANCELLED, "worker cancelled")
                raise
            except TRANSIENT as exc:
                if job.attempts <= self.max_retries and not job.cancel_requested:
                    delay = self.retry_backoff * 2 ** (job.attempts - 1)
                    emit(
                        "service.job_retry",
                        logger=_log,
                        level=logging.WARNING,
                        job=job.id,
                        attempt=job.attempts,
                        delay=round(delay, 3),
                        error=repr(exc),
                    )
                    self.instruments.job_retries_total.inc()
                    await asyncio.sleep(delay)
                    continue
                job.reject(FAILED, repr(exc))
            except BaseException as exc:
                job.reject(FAILED, repr(exc))
            else:
                if job.cancel_requested:
                    job.reject(CANCELLED, "cancelled while running")
                else:
                    # Store first, then settle with the store's text:
                    # no waiter sees a done job whose result is not
                    # stored, and the job pins no parsed Result.
                    try:
                        with job.trace.span("store.write", hash=job.hash):
                            spec_hash = self.store.put(result)
                    except Exception as exc:  # the job must still settle
                        job.reject(FAILED, f"store write failed: {exc!r}")
                        return
                    self.instruments.store_entries.set(len(self.store))
                    job.resolve(self.store.peek(spec_hash))
            return

    def _execute(self, job: Job):
        """Blocking engine run (called from a worker thread)."""
        self.instruments.engine_runs_total.inc()
        if self.profile:
            return self.session.run(job.spec, profile=True)
        return self.session.run(job.spec)

    def _persist_trace(self, job: Job) -> None:
        """Best-effort write of ``<cache_dir>/traces/<job_id>.json``."""
        if self._traces is not None:
            self._traces.write(
                job.id, json.dumps(job.trace.export(), sort_keys=True).encode()
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
        store = self.store.stats()
        if self.session.cache is not None:
            store["engine_cache"] = self.session.cache.stats()
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
                "active": self.active,
                "executed": self.executed,
                "from_store": self._synthetic,
                "by_state": states,
            },
            "store": store,
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
            "workers": self.workers,
            "queue_depth": self.queue.depth,
            "runs_completed": self.session.runs_completed,
        }

    def __repr__(self) -> str:
        return (
            f"ExperimentService(workers={self.workers}, "
            f"queue={self.queue!r}, store={self.store!r})"
        )
