"""Opt-in sampled profiling: stacks of one run's thread, plus rusage.

:class:`SamplingProfiler`
    A background thread samples Python stacks via
    :func:`sys._current_frames` at :data:`DEFAULT_HZ` (47 Hz, a prime
    so the sampler does not phase-lock with periodic work) and
    aggregates them into collapsed-stack counts — the
    ``frameA;frameB;frameC count`` format flamegraph tooling eats.
    Given a ``thread_id`` it samples only that thread; without one it
    samples every thread but its own (the service's ``GET
    /debug/profile``).  Sampling never acquires locks held by the
    sampled threads and never touches the event loop, so it is safe
    under asyncio and worker pools alike.  Start/stop are idempotent
    and the profiler is restartable.

:class:`RunProfiler`
    One run's collector, behind :meth:`repro.api.Session.run`'s
    ``profile=True``: a sampler bound to the thread that runs the
    experiment, so concurrent runs never see each other's stacks, and
    the process's CPU and RSS high-water mark over the run.

:func:`process_usage` / :func:`usage_delta`
    Cheap point-in-time process accounting — ``time.process_time`` plus
    ``resource.getrusage`` where available — used both for per-shard
    worker deltas (returned through the existing runner chunk tuples)
    and the service's ``repro_process_*`` gauges.

Profiles are observational by contract (DESIGN.md §7): they attach only
to ``meta["telemetry"]["profile"]``, never to ``Result.data`` and never
to cache keys, so a profiled run is bit-identical to an unprofiled one.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Any, Mapping

try:  # not on Windows; every collector degrades gracefully without it
    import resource as _resource
except ImportError:  # pragma: no cover - platform dependent
    _resource = None

__all__ = [
    "DEFAULT_HZ",
    "MAX_STACK_DEPTH",
    "RunProfiler",
    "SamplingProfiler",
    "process_usage",
    "usage_delta",
]

#: The sampling rate.  Prime, so the sampler cannot phase-lock with
#: work that recurs at round frequencies; high enough to resolve
#: ~50 ms phases, low enough that GIL handoffs to the sampler thread
#: stay well under the 5% overhead budget (see DESIGN.md §7 and
#: benchmarks/test_profile_overhead.py).
DEFAULT_HZ = 47.0

#: Innermost frames kept per sampled stack.
MAX_STACK_DEPTH = 64

#: ru_maxrss unit: KiB on Linux, bytes on macOS.
_RU_MAXRSS_SCALE = 1 if sys.platform == "darwin" else 1024


# ----------------------------------------------------------------------
# Process / worker resource accounting
# ----------------------------------------------------------------------
def process_usage() -> dict:
    """A point-in-time snapshot of this process's resource usage.

    Keys: ``pid``, ``cpu_seconds`` (process-wide CPU via
    :func:`time.process_time`), ``wall_seconds`` (perf_counter),
    ``user_seconds``/``system_seconds``/``max_rss_bytes`` (rusage,
    ``None`` where :mod:`resource` is unavailable).
    """
    snap = {
        "pid": os.getpid(),
        "cpu_seconds": time.process_time(),
        "wall_seconds": time.perf_counter(),
        "user_seconds": None,
        "system_seconds": None,
        "max_rss_bytes": None,
    }
    if _resource is not None:
        usage = _resource.getrusage(_resource.RUSAGE_SELF)
        snap["user_seconds"] = usage.ru_utime
        snap["system_seconds"] = usage.ru_stime
        snap["max_rss_bytes"] = int(usage.ru_maxrss) * _RU_MAXRSS_SCALE
    return snap


def usage_delta(before: "Mapping[str, Any]") -> dict:
    """Usage accrued since a :func:`process_usage` snapshot.

    CPU and wall figures are deltas; ``max_rss_bytes`` is the *end*
    high-water mark (rusage reports a lifetime watermark, so a delta
    would usually be zero and never meaningful).
    """
    now = process_usage()
    delta = {
        "pid": now["pid"],
        "cpu_seconds": round(now["cpu_seconds"] - before["cpu_seconds"], 9),
        "wall_seconds": round(now["wall_seconds"] - before["wall_seconds"], 9),
        "max_rss_bytes": now["max_rss_bytes"],
    }
    if now["user_seconds"] is not None and before.get("user_seconds") is not None:
        delta["user_seconds"] = round(now["user_seconds"] - before["user_seconds"], 9)
        delta["system_seconds"] = round(
            now["system_seconds"] - before["system_seconds"], 9
        )
    return delta


# ----------------------------------------------------------------------
# Sampling profiler
# ----------------------------------------------------------------------
def _frame_label(frame) -> str:
    code = frame.f_code
    module = frame.f_globals.get("__name__", code.co_filename)
    qualname = getattr(code, "co_qualname", code.co_name)  # 3.11+
    return f"{module}:{qualname}"


class SamplingProfiler:
    """Sample one thread's stack (or every thread's) on a background thread.

    The sampler holds its own lock only while bumping the counts dict —
    never while walking frames — and :func:`sys._current_frames` itself
    does not block the sampled threads, so a stuck or GIL-heavy workload
    cannot deadlock against its own profiler.
    """

    def __init__(self, thread_id: "int | None" = None):
        #: The one thread sampled (``None``: every thread but the
        #: sampler's own).
        self.thread_id = thread_id
        self.hz = DEFAULT_HZ
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None
        self._counts: "dict[str, int]" = {}
        self._threads_observed: "set[str]" = set()
        self.samples = 0
        self._started_at: "float | None" = None
        self.duration_seconds = 0.0
        #: Accumulated time spent inside :meth:`_sample_once` — the
        #: sampler's own CPU cost, so every profile carries its measured
        #: overhead (asserted against the 5% budget in
        #: benchmarks/test_profile_overhead.py).  Written only by the
        #: sampler thread.
        self.sampling_seconds = 0.0

    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SamplingProfiler":
        """Begin sampling (idempotent; restart resumes the same counts)."""
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return self
            self._stop.clear()
            self._started_at = time.perf_counter()
            self._thread = threading.Thread(
                target=self._loop, name="repro-profiler", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        """Stop sampling (idempotent).  Counts survive for collection."""
        with self._lock:
            thread, self._thread = self._thread, None
            if self._started_at is not None:
                self.duration_seconds += time.perf_counter() - self._started_at
                self._started_at = None
        if thread is not None:
            self._stop.set()
            thread.join(timeout=5.0)
        return self

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def _loop(self) -> None:
        interval = 1.0 / self.hz
        own_ident = threading.get_ident()
        # Drift-corrected schedule: next_tick advances by the interval,
        # not by "now + interval", so a slow sample does not lower the
        # effective rate permanently.
        next_tick = time.perf_counter() + interval
        while not self._stop.is_set():
            delay = next_tick - time.perf_counter()
            if delay > 0 and self._stop.wait(delay):
                break
            next_tick += interval
            sample_started = time.perf_counter()
            self._sample_once(own_ident)
            self.sampling_seconds += time.perf_counter() - sample_started

    def _sample_once(self, own_ident: int) -> None:
        frames = sys._current_frames()
        if self.thread_id is not None:
            frame = frames.get(self.thread_id)
            frames = {} if frame is None else {self.thread_id: frame}
        names = {t.ident: t.name for t in threading.enumerate()}
        stacks = []
        for ident, frame in frames.items():
            if ident == own_ident:
                continue
            parts: "list[str]" = []
            while frame is not None and len(parts) < MAX_STACK_DEPTH:
                parts.append(_frame_label(frame))
                frame = frame.f_back
            if not parts:
                continue
            parts.reverse()  # root → leaf, the collapsed-stack order
            stacks.append((";".join(parts), names.get(ident, str(ident))))
        with self._lock:
            self.samples += 1
            for stack, thread_name in stacks:
                self._counts[stack] = self._counts.get(stack, 0) + 1
                self._threads_observed.add(thread_name)

    # ------------------------------------------------------------------
    def collapsed(self) -> "dict[str, int]":
        """A snapshot of the collapsed-stack counts."""
        with self._lock:
            return dict(self._counts)

    def collapsed_text(self) -> str:
        """The counts in collapsed-stack text format (one per line)."""
        counts = self.collapsed()
        return "\n".join(f"{stack} {count}" for stack, count in sorted(counts.items()))

    def to_dict(self) -> dict:
        with self._lock:
            duration = self.duration_seconds
            if self._started_at is not None:
                duration += time.perf_counter() - self._started_at
            return {
                "hz": self.hz,
                "samples": self.samples,
                "duration_seconds": round(duration, 6),
                "sampling_seconds": round(self.sampling_seconds, 6),
                "stacks": dict(self._counts),
                "threads_observed": sorted(self._threads_observed),
            }


# ----------------------------------------------------------------------
# One run's collector
# ----------------------------------------------------------------------
class RunProfiler:
    """Profile one run (context manager).

    The sampler is bound to the thread that creates the profiler — the
    thread running the experiment — so a run's profile holds only its
    own stacks even while other runs share the process.  At ``--workers
    N>1`` the engine work runs in worker processes; this thread then
    waits in ``executor.map``, and the workers' CPU and RSS arrive in
    the run's ``engine``/``perf`` ``resources`` telemetry instead.
    The profile's ``process`` block is this process's rusage delta over
    the run; its ``max_rss_bytes`` is the one memory figure.
    """

    def __init__(self):
        self.sampler = SamplingProfiler(threading.get_ident())
        self._usage0: "dict | None" = None
        self._profile: "dict | None" = None

    def __enter__(self) -> "RunProfiler":
        self._usage0 = process_usage()
        self.sampler.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.sampler.stop()
        self._profile = {
            **self.sampler.to_dict(),
            "process": usage_delta(self._usage0),
        }

    # ------------------------------------------------------------------
    def profile(self) -> dict:
        """The profile payload, frozen when the run exits."""
        return self._profile

    def digest(self) -> dict:
        """A small summary for span attributes (no stack payload)."""
        profile = self.profile()
        return {
            "hz": profile["hz"],
            "samples": profile["samples"],
            "unique_stacks": len(profile["stacks"]),
            "duration_seconds": profile["duration_seconds"],
        }
