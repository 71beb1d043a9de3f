"""Async worker pool draining the job queue onto the blocking engine.

Workers are plain asyncio tasks: each one loops ``await queue.get()``,
ships the job's spec to the blocking execution callable (in practice
``Session.run`` on the service's shared session/executor) via
``asyncio.to_thread``, and settles the job.  Concurrency is therefore
``workers`` simultaneous engine runs — the engine's own process pool
parallelizes *within* a run, the service's worker count parallelizes
*across* distinct specs.

Per-job controls:

- **timeout** — ``job.timeout`` (falling back to the pool default)
  bounds one execution attempt via ``asyncio.wait_for``.  A timed-out
  job settles as ``timeout``; the underlying thread cannot be killed
  mid-``Session.run`` and is left to finish into the void (its result
  is discarded), which is the standard asyncio/thread trade-off.
- **retry with backoff** — exceptions in :data:`TRANSIENT` (connection
  and OS errors, and a worker process killed mid-run, which breaks the
  engine's pool; the next attempt starts a fresh one) retry up to
  ``max_retries`` times with exponential backoff
  (``retry_backoff * 2**attempt`` seconds).  Everything else —
  :class:`~repro.api.spec.SpecError`, programming errors — fails the
  job immediately; re-running a deterministic failure cannot fix it.
- **cancellation** — a cancel request against a running job lets the
  attempt finish but discards the outcome and settles the job as
  ``cancelled`` (queued jobs cancel instantly inside the queue).

Every transition emits ``service.job_start`` / ``service.job_retry`` /
``service.job_finish`` telemetry through :func:`repro.obs.emit`; a
retry is emitted inside the job's ``worker.run`` span, so it is also
recorded there as a span event.

Observability: claiming a job records its ``queue.wait`` span (from the
admission timestamp) and the whole execution runs inside a
``worker.run`` span.  The span is the ambient one for the worker
coroutine, so it crosses ``asyncio.to_thread`` into ``Session.run``
(which opens ``engine.execute`` as a child) and covers the
``on_success`` hook (the service's ``store.write`` span nests under
it).  When the pool is given
:class:`~repro.service.instruments.ServiceInstruments`, outcome
counters, latency/phase histograms, retry counts and worker-utilization
gauges are updated at the same transitions.
"""

from __future__ import annotations

import asyncio
import logging
import time
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Callable

from repro.obs import emit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .instruments import ServiceInstruments

from .queue import (
    CANCELLED,
    FAILED,
    TIMEOUT,
    Job,
    JobQueue,
    QueueClosedError,
)

__all__ = ["WorkerPool"]

_log = logging.getLogger(__name__)

#: Failures worth retrying: the next attempt may succeed where this one
#: did not (a killed engine worker breaks the pool; the retry runs on a
#: fresh one).
TRANSIENT = (ConnectionError, OSError, BrokenProcessPool)


class WorkerPool:
    """``workers`` asyncio tasks executing jobs from a :class:`JobQueue`.

    Parameters
    ----------
    queue:
        The admission queue to drain.
    execute:
        Blocking callable ``execute(job) -> Result`` (run in a thread).
    workers:
        Concurrent job executions.
    job_timeout:
        Default per-attempt timeout in seconds (``None`` = unbounded);
        a job's own ``timeout`` overrides it.
    max_retries:
        Extra attempts allowed after a transient failure.
    retry_backoff:
        Base backoff in seconds (doubles per retry).
    on_success:
        Optional hook ``on_success(job, result)`` invoked on the event
        loop before the job resolves (the service stores the result
        here, so waiters can never observe a done-but-unstored job).
        When it returns the result's stored JSON text, the job resolves
        with that text instead of the :class:`Result` object.
    on_finish:
        Optional hook ``on_finish(job)`` invoked on the event loop after
        the job settles in *any* terminal state (the service persists
        the job's trace here).  A raising hook is logged, not fatal.
    instruments:
        Optional :class:`~repro.service.instruments.ServiceInstruments`
        receiving outcome/latency/utilization updates.
    """

    def __init__(
        self,
        queue: JobQueue,
        execute: Callable[[Job], object],
        *,
        workers: int = 2,
        job_timeout: "float | None" = None,
        max_retries: int = 2,
        retry_backoff: float = 0.1,
        on_success: "Callable[[Job, object], None] | None" = None,
        on_finish: "Callable[[Job], None] | None" = None,
        instruments: "ServiceInstruments | None" = None,
    ):
        if workers < 1:
            raise ValueError("workers must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self._queue = queue
        self._execute = execute
        self.workers = workers
        self.job_timeout = job_timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self._on_success = on_success
        self._on_finish = on_finish
        self._instruments = instruments
        if instruments is not None:
            instruments.workers_total.set(workers)
        self._tasks: "list[asyncio.Task]" = []
        self.executed = 0  # attempts that ran to completion (any outcome)
        self.active = 0  # jobs currently executing

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the worker tasks (idempotent)."""
        if self._tasks:
            return
        self._tasks = [
            asyncio.get_running_loop().create_task(
                self._worker(i), name=f"repro-service-worker-{i}"
            )
            for i in range(self.workers)
        ]

    async def join(self) -> None:
        """Wait for every worker to exit (after ``queue.close()``)."""
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
            self._tasks = []

    async def abort(self) -> None:
        """Hard-cancel the worker tasks (running jobs settle cancelled)."""
        for task in self._tasks:
            task.cancel()
        await self.join()

    # ------------------------------------------------------------------
    async def _worker(self, index: int) -> None:
        while True:
            try:
                job = await self._queue.get()
            except QueueClosedError:
                return
            try:
                await self._run_job(job)
            finally:
                self._queue.release(job)

    #: Job terminal states → ``repro_jobs_total`` outcome labels.
    _OUTCOMES = {
        "done": "ok",
        "failed": "error",
        "timeout": "timeout",
        "cancelled": "cancelled",
    }

    async def _run_job(self, job: Job) -> None:
        # queue.get() already marked the job running.
        self.active += 1
        ins = self._instruments
        if job.started is not None:
            # The admission-to-claim interval, observed after the fact.
            wait = max(job.started - job.created, 0.0)
            job.trace.add_span(
                "queue.wait",
                start=job.created,
                end=job.started,
                priority=job.priority,
            )
            if ins is not None:
                ins.queue_wait_seconds.observe(wait)
                ins.job_phase_seconds.labels(phase="queue.wait").observe(wait)
                ins.queue_depth.set(self._queue.depth)
        if ins is not None:
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
            # worker.run is the ambient span for everything this job
            # does from here: Session.run's engine.execute child (via
            # the to_thread context copy) and the on_success hook both
            # nest under it.
            with job.trace.span(
                "worker.run",
                job=job.id,
                experiment=job.spec.experiment,
                submissions=job.submissions,
            ) as span:
                while True:
                    job.attempts += 1
                    try:
                        result = await asyncio.wait_for(
                            asyncio.to_thread(self._execute, job), timeout
                        )
                    except asyncio.TimeoutError:
                        job.reject(
                            TIMEOUT,
                            f"attempt {job.attempts} exceeded {timeout}s",
                        )
                        break
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
                            if ins is not None:
                                ins.job_retries_total.inc()
                            await asyncio.sleep(delay)
                            continue
                        job.reject(FAILED, repr(exc))
                        break
                    except BaseException as exc:
                        job.reject(FAILED, repr(exc))
                        break
                    else:
                        if job.cancel_requested:
                            job.reject(CANCELLED, "cancelled while running")
                        else:
                            stored = None
                            if self._on_success is not None:
                                stored = self._on_success(job, result)
                            if stored is None:
                                job.resolve(result)
                            else:
                                job.resolve_json(stored)
                        break
                span.set(state=job.state, attempts=job.attempts)
        finally:
            self.active -= 1
            self.executed += 1
            elapsed = (
                round(job.finished - job.started, 6)
                if job.finished is not None and job.started is not None
                else None
            )
            if ins is not None:
                ins.workers_busy.dec()
                ins.worker_busy_seconds_total.inc(time.monotonic() - claimed)
                ins.jobs_total.labels(
                    outcome=self._OUTCOMES.get(job.state, job.state)
                ).inc()
                if elapsed is not None:
                    ins.job_phase_seconds.labels(phase="worker.run").observe(elapsed)
                if job.finished is not None:
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
            if self._on_finish is not None:
                try:
                    self._on_finish(job)
                except Exception:
                    _log.warning(
                        "on_finish hook raised for job %s", job.id, exc_info=True
                    )

    def __repr__(self) -> str:
        return (
            f"WorkerPool(workers={self.workers}, active={self.active}, "
            f"executed={self.executed})"
        )
