"""Priority job queue with single-flight dedup by spec content hash.

The queue is the service's admission layer.  Three properties matter:

**Single-flight dedup.**  Jobs are keyed by
:meth:`~repro.api.spec.ExperimentSpec.content_hash`.  While a job for a
given hash is *in flight* (queued or running), every further submission
of an equal spec attaches to that job instead of enqueuing new work —
:meth:`JobQueue.submit` returns the existing :class:`Job` with
``deduped=True`` and all attached waiters resolve with the same
:class:`~repro.api.result.Result` the single execution produced.  The
hash covers the full spec identity (experiment, backend, trials, seed,
confidence, params) and nothing else — telemetry, submission time and
priority deliberately stay out of it, so observationally different but
semantically equal submissions coalesce.

**Priorities.**  Higher ``priority`` integers run first; ties run in
submission order.  A coalesced submission may *raise* the in-flight
job's priority (never lower it) while the job is still queued.

**Bounded capacity.**  ``capacity`` bounds the number of *queued* jobs
(running jobs have already left the queue).  A genuinely new submission
against a full queue raises :class:`QueueFullError` — the HTTP layer
maps it to 429 — while coalescing submissions always succeed (they add
no work).

The queue is purely asyncio-native: every method must be called from
the event-loop thread, so no locks are needed; :meth:`get` is the only
awaitable and parks workers on a condition until work (or shutdown)
arrives.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import json
import secrets
import time
from typing import TYPE_CHECKING, Optional

from repro.obs.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.result import Result
    from repro.api.spec import ExperimentSpec

__all__ = [
    "Job",
    "JobQueue",
    "QueueClosedError",
    "QueueFullError",
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "TIMEOUT",
    "CANCELLED",
    "TERMINAL_STATES",
]

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
TIMEOUT = "timeout"
CANCELLED = "cancelled"

TERMINAL_STATES = frozenset({DONE, FAILED, TIMEOUT, CANCELLED})


class QueueFullError(RuntimeError):
    """A new (non-coalescing) submission hit the queue's capacity bound."""


class QueueClosedError(RuntimeError):
    """The queue is closed (and drained); workers should exit."""


class Job:
    """One unit of service work: a spec, its lifecycle, and its outcome.

    A job is created once per *distinct in-flight spec*; coalesced
    submissions share the instance (``submissions`` counts them).  Any
    number of tasks may :meth:`wait` on the same job; they all wake when
    it reaches a terminal state.
    """

    __slots__ = (
        "id",
        "spec",
        "hash",
        "priority",
        "timeout",
        "state",
        "created",
        "started",
        "finished",
        "attempts",
        "submissions",
        "error",
        "result_json",
        "from_store",
        "cancel_requested",
        "trace",
        "_done",
    )

    def __init__(
        self,
        job_id: str,
        spec: "ExperimentSpec",
        *,
        priority: int = 0,
        timeout: "float | None" = None,
    ):
        self.id = job_id
        self.spec = spec
        self.hash = spec.content_hash()
        self.priority = int(priority)
        self.timeout = timeout
        self.state = QUEUED
        self.created = time.time()
        self.started: "float | None" = None
        self.finished: "float | None" = None
        self.attempts = 0
        self.submissions = 1
        self.error: "str | None" = None
        #: The settled result as the store's JSON text (the very ``str``
        #: the store holds, so a settled job pins no parsed copy).
        self.result_json: "str | None" = None
        self.from_store = False
        self.cancel_requested = False
        # Every job carries its own trace from birth; spans are added
        # by whoever touches the job (service admit, worker, engine).
        self.trace = Trace(name=spec.experiment)
        # Created by the first wait() on an unsettled job and dropped
        # once set, so a settled job carries no event object.
        self._done: "asyncio.Event | None" = None

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def trace_id(self) -> str:
        return self.trace.trace_id

    @property
    def result(self) -> "Result | None":
        """The settled :class:`Result`, parsed on demand from
        :attr:`result_json` (``None`` until the job is done)."""
        if self.result_json is None:
            return None
        from repro.api.result import Result

        return Result.from_json(self.result_json)

    async def wait(self, timeout: "float | None" = None) -> bool:
        """Block until the job reaches a terminal state.

        Returns ``True`` when terminal, ``False`` on wait timeout (the
        job keeps running either way).
        """
        if self.done:
            return True
        if self._done is None:
            self._done = asyncio.Event()
        try:
            await asyncio.wait_for(self._done.wait(), timeout)
        except asyncio.TimeoutError:
            return False
        return True

    # ------------------------------------------------------------------
    def mark_running(self) -> None:
        self.state = RUNNING
        self.started = time.time()

    def resolve(self, text: str) -> None:
        """Terminal success with the result's stored JSON text; wakes
        every waiter."""
        if self.done:  # settle exactly once
            return
        self.result_json = text
        self._finish(DONE)

    def reject(self, state: str, error: str) -> None:
        """Terminal failure (``failed``/``timeout``/``cancelled``)."""
        if state not in TERMINAL_STATES or state == DONE:
            raise ValueError(f"not a failure state: {state!r}")
        if self.done:
            return
        self.error = error
        self._finish(state)

    def _finish(self, state: str) -> None:
        self.state = state
        self.finished = time.time()
        if self._done is not None:
            self._done.set()
            self._done = None

    # ------------------------------------------------------------------
    def to_payload(self, *, include_result: bool = True) -> dict:
        """JSON-pure job status (the ``GET /jobs/{id}`` body)."""
        payload = {
            "id": self.id,
            "state": self.state,
            "hash": self.hash,
            "spec": self.spec.to_key(),
            "priority": self.priority,
            "timeout": self.timeout,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "attempts": self.attempts,
            "submissions": self.submissions,
            "from_store": self.from_store,
            "error": self.error,
            "trace_id": self.trace.trace_id,
        }
        if include_result and self.result_json is not None:
            payload["result"] = json.loads(self.result_json)
        return payload

    def __repr__(self) -> str:
        return (
            f"Job({self.id!r}, {self.spec.experiment!r}, state={self.state!r}, "
            f"hash={self.hash[:12]}…, priority={self.priority})"
        )


class JobQueue:
    """Bounded, priority-ordered, deduplicating admission queue."""

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._heap: "list[tuple[int, int, Job]]" = []
        self._tick = itertools.count()
        self._ids = itertools.count(1)
        self._id_token = secrets.token_hex(4)
        self._inflight: "dict[str, Job]" = {}
        self._queued = 0
        self._closed = False
        self._wakeup = asyncio.Event()
        self.submitted = 0
        self.coalesced = 0

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Number of queued (not yet running) jobs."""
        return self._queued

    @property
    def closed(self) -> bool:
        return self._closed

    def inflight(self, spec_hash: str) -> "Optional[Job]":
        """The queued-or-running job for ``spec_hash``, if any."""
        return self._inflight.get(spec_hash)

    # ------------------------------------------------------------------
    def new_id(self, kind: str) -> str:
        """A fresh job id, ``<kind>-<token>-<n>``.

        The random token is drawn once per queue, so a restarted
        service never reuses an id (nor overwrites the previous
        process's ``traces/<job_id>.json``) even though ``n`` restarts
        at 1.  Queued (``j``) and store-hit (``s``) jobs share the
        counter.
        """
        return f"{kind}-{self._id_token}-{next(self._ids):06d}"

    def submit(
        self,
        spec: "ExperimentSpec",
        *,
        priority: int = 0,
        timeout: "float | None" = None,
    ) -> "tuple[Job, bool]":
        """Admit one submission; returns ``(job, deduped)``.

        An equal spec already in flight coalesces onto the existing job
        (its priority is raised to ``max`` of the two while still
        queued); otherwise a new job is enqueued, subject to the
        capacity bound.
        """
        if self._closed:
            raise QueueClosedError("queue is closed to new submissions")
        spec_hash = spec.content_hash()
        existing = self._inflight.get(spec_hash)
        if existing is None and self._queued >= self.capacity:
            raise QueueFullError(
                f"queue full ({self._queued}/{self.capacity} jobs queued)"
            )
        self.submitted += 1  # admitted only: a rejection is not counted
        if existing is not None:
            self.coalesced += 1
            existing.submissions += 1
            if existing.state == QUEUED and priority > existing.priority:
                # Re-push under the stronger priority; the stale heap
                # entry is skipped on pop (the job is only handed out
                # while still QUEUED, and popping flips it out of the
                # heap's view via _inflight bookkeeping).
                existing.priority = priority
                heapq.heappush(
                    self._heap, (-priority, next(self._tick), existing)
                )
            return existing, True
        job = Job(self.new_id("j"), spec, priority=priority, timeout=timeout)
        self._inflight[spec_hash] = job
        heapq.heappush(self._heap, (-job.priority, next(self._tick), job))
        self._queued += 1
        self._wakeup.set()
        return job, False

    async def get(self) -> Job:
        """Pop the highest-priority queued job (blocks until one exists).

        The returned job is already marked ``running`` — claiming it
        atomically with the pop is what makes a priority-raise's twin
        heap entry harmless (the state check skips it).  Raises
        :class:`QueueClosedError` once the queue is closed *and*
        drained, so workers naturally exit after finishing the backlog.
        """
        while True:
            job = self._pop()
            if job is not None:
                return job
            if self._closed:
                raise QueueClosedError("queue closed and drained")
            self._wakeup.clear()
            await self._wakeup.wait()

    def _pop(self) -> "Optional[Job]":
        while self._heap:
            _, _, job = heapq.heappop(self._heap)
            if job.state != QUEUED:
                continue  # cancelled, or a stale twin from a priority raise
            self._queued -= 1
            job.mark_running()
            return job
        return None

    def release(self, job: Job) -> None:
        """Detach a terminal job from the single-flight index.

        Called by the service's worker once the job settles; *after* this, a
        new submission of the same spec starts fresh work (or hits the
        result store).
        """
        if self._inflight.get(job.hash) is job:
            del self._inflight[job.hash]

    def cancel(self, job: Job) -> bool:
        """Cancel a queued job (running jobs only get a cancel request).

        Returns ``True`` when the job was still queued and is now
        terminally ``cancelled``; ``False`` for running jobs, where the
        request is recorded and the worker discards the outcome.
        """
        if job.state == QUEUED:
            job.reject(CANCELLED, "cancelled while queued")
            self._queued -= 1
            self.release(job)
            return True
        job.cancel_requested = True
        return False

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Refuse new submissions; queued work remains drainable."""
        self._closed = True
        self._wakeup.set()

    def cancel_pending(self) -> int:
        """Cancel every still-queued job (fast shutdown); returns count."""
        cancelled = 0
        for _, _, job in list(self._heap):
            if job.state == QUEUED and self.cancel(job):
                cancelled += 1
        return cancelled

    def __len__(self) -> int:
        return self._queued

    def __repr__(self) -> str:
        return (
            f"JobQueue(depth={self._queued}/{self.capacity}, "
            f"inflight={len(self._inflight)}, "
            f"{'closed' if self._closed else 'open'})"
        )
