"""Persistent, shared multiprocessing executor for sharded runs.

Before this module every :func:`repro.engine.runner.run_experiment` and
:func:`repro.perf.backend.run_performance_grid` call built and tore
down its own ``multiprocessing.Pool`` — a fork (or, worse, a spawn and
full re-import of numpy + repro) per experiment cell.  A sweep over
dozens of cells paid that startup tax dozens of times.

:class:`SharedExecutor` is the replacement: one lazily created,
reusable pool with an **explicit** start method.  The engine and the
performance backend both accept one, and :class:`repro.api.Session`
owns one for its whole life, so every cell of a multi-experiment sweep
reuses the same warm workers.  Worker processes additionally keep
per-spec decoder caches (:func:`functools.lru_cache` on the worker-side
entry points), so repeated cells skip lookup-table construction too.

Sharing a pool is safe because the work items are pure functions of
their payloads: the engine's block-keyed RNG makes results independent
of which worker runs which chunk, so executor reuse — like worker
count and chunk size — cannot change any result.

The start method is always an explicit, pinned choice: an explicit
argument, else ``"fork"`` on Linux, else the platform's own default
(spawn on macOS/Windows — fork is unsafe there once Accelerate /
Objective-C threads exist, so it is never silently imposed).
Everything shipped to workers (specs, scenario models, protection
configs) is a small picklable value object and the worker entry points
are module-level functions, so the engine is spawn-safe by
construction; a dedicated test pins the spawn-vs-serial bit-identity.

The pool itself is a stdlib
:class:`concurrent.futures.ProcessPoolExecutor`, which owns the worker
lifecycle: it reaps its workers at interpreter exit and when it is
garbage-collected, and a worker that dies mid-task (OOM killer,
``SIGKILL``) breaks the pool with
:class:`~concurrent.futures.process.BrokenProcessPool` instead of
losing the task silently.  :meth:`SharedExecutor.map` reports the
break, drops the dead pool so the next parallel map builds a fresh one,
and re-raises — a killed worker is an error in bounded time, never a
hang.  Retrying is the caller's decision (the experiment service
retries it as a transient failure).

One standard Python caveat applies under ``"spawn"`` (and
``"forkserver"``): children re-import the driver's ``__main__``
module, so a *script* that fans out must guard its entry point with
``if __name__ == "__main__":``.  Imported library code, pytest and the
``python -m repro`` CLI are already safe.
"""

from __future__ import annotations

import logging
import multiprocessing
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.context import BaseContext
from typing import Any, Callable, Iterable, Sequence

from repro.obs import emit

__all__ = ["SharedExecutor", "resolve_mp_context"]

_log = logging.getLogger(__name__)


def resolve_mp_context(
    mp_context: "str | BaseContext | None" = None,
) -> BaseContext:
    """Resolve an explicit multiprocessing context.

    ``mp_context`` may be a start-method name, an already-built
    context, or ``None`` — which prefers ``"fork"`` on Linux (cheapest;
    shares the imported package), and otherwise pins the platform's
    default start method (macOS switched its default to spawn because
    forking after Accelerate/Objective-C threads start is unsafe — that
    choice is deliberately respected, not overridden).  Unknown names
    raise ``ValueError`` eagerly, not inside a worker.
    """
    if isinstance(mp_context, BaseContext):
        return mp_context
    name = mp_context
    if name is None:
        methods = multiprocessing.get_all_start_methods()
        if sys.platform.startswith("linux") and "fork" in methods:
            name = "fork"
        else:
            name = multiprocessing.get_context().get_start_method()
    return multiprocessing.get_context(name)


class SharedExecutor:
    """A lazily created, reusable worker pool with an explicit context.

    Parameters
    ----------
    workers:
        Process count.  1 never creates a pool: ``map`` runs inline,
        so a single-worker executor is free to construct and share.
    mp_context:
        Start method (name or context object); see
        :func:`resolve_mp_context` for the default resolution.

    The underlying pool is created on the first parallel :meth:`map`
    and reused until :meth:`close` (or until a worker dies and breaks
    it); the executor is also a context manager, and closing is
    idempotent.
    """

    def __init__(
        self,
        workers: int = 1,
        mp_context: "str | BaseContext | None" = None,
    ):
        if workers < 1:
            raise ValueError("workers must be positive")
        self._workers = workers
        self._context = resolve_mp_context(mp_context)
        self._pool: "ProcessPoolExecutor | None" = None
        # The experiment service drives one executor from several
        # threads, so building, dropping and closing the pool are
        # serialized (and close() is idempotent under concurrent callers).
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        return self._workers

    @property
    def start_method(self) -> str:
        """The resolved start method name ("fork", "spawn", ...)."""
        return self._context.get_start_method()

    @property
    def started(self) -> bool:
        """Whether the worker pool currently exists."""
        return self._pool is not None

    # ------------------------------------------------------------------
    def map(
        self, func: Callable[[Any], Any], payloads: Iterable[Any]
    ) -> "Sequence[Any]":
        """Apply ``func`` to every payload, preserving order.

        Runs inline for a single worker or a single payload (matching
        the historical runner behavior); otherwise fans out over the
        persistent pool, creating it on first use.  A worker that dies
        mid-map raises :class:`BrokenProcessPool`; the dead pool is
        dropped first, so the next parallel map starts a fresh one.
        """
        items = list(payloads)
        if self._workers == 1 or len(items) <= 1:
            emit(
                "executor.map",
                logger=_log,
                items=len(items),
                workers=self._workers,
                inline=True,
            )
            return [func(item) for item in items]
        with self._lock:
            if self._pool is None:
                emit(
                    "executor.pool.start",
                    logger=_log,
                    level=logging.INFO,
                    workers=self._workers,
                    start_method=self.start_method,
                )
                self._pool = ProcessPoolExecutor(
                    max_workers=self._workers, mp_context=self._context
                )
            pool = self._pool
        emit(
            "executor.map",
            logger=_log,
            items=len(items),
            workers=self._workers,
            inline=False,
        )
        try:
            return list(pool.map(func, items))
        except BrokenProcessPool as exc:
            emit(
                "executor.pool.broken",
                logger=_log,
                level=logging.WARNING,
                workers=self._workers,
                error=repr(exc),
            )
            with self._lock:
                if self._pool is pool:  # concurrent maps see one break
                    self._pool = None
            raise

    def close(self) -> None:
        """Tear down the pool (if any); the executor stays reusable.

        Idempotent and safe under concurrent callers: exactly one
        caller tears the pool down, the rest return immediately.
        Queued work is cancelled; chunks already running finish first.
        """
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            emit(
                "executor.pool.close",
                logger=_log,
                level=logging.INFO,
                workers=self._workers,
            )
            pool.shutdown(wait=True, cancel_futures=True)

    # ------------------------------------------------------------------
    def __enter__(self) -> "SharedExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "started" if self.started else "idle"
        return (
            f"SharedExecutor(workers={self._workers}, "
            f"context={self.start_method!r}, {state})"
        )
