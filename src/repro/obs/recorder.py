"""The per-run telemetry recorder and its typed counter/timer primitives.

One :class:`RunRecorder` lives for one ``Session.run`` call (or any
other scope a caller wraps in :func:`repro.obs.use_recorder`).  It
keeps the ordered structured-event stream, auto-counts events by name,
hosts explicit :class:`Counter`/:class:`Timer` aggregates (phase
timings), and fans every event out to subscribers.

The recorder's :meth:`~RunRecorder.summary` is the serializable
artifact: a JSON-pure digest of cache behavior, phase timings, engine
shard/dispatch statistics and executor lifecycle that survives the
``Result`` JSON round-trip as ``meta["telemetry"]``.  The full raw
stream is available as JSON lines via :meth:`~RunRecorder.to_jsonl`
(the CLI's ``--telemetry PATH``).

Subscribers are fault-isolated: a subscriber that raises is logged once
(WARNING) and dropped for the rest of the run, so a broken progress
hook can no longer kill a simulation (it used to propagate out of
``Session.run``).
"""

from __future__ import annotations

import json
import logging
import threading
import time
from typing import Any, Callable

__all__ = ["TELEMETRY_SCHEMA_VERSION", "Counter", "Timer", "RunRecorder"]

#: Bump when the summary layout changes incompatibly.
TELEMETRY_SCHEMA_VERSION = 1

_log = logging.getLogger("repro.obs")


class Counter:
    """A named monotonically increasing integer (thread-safe: executor
    and service paths bump counters from several threads at once)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def add(self, n: int = 1) -> int:
        with self._lock:
            self.value += int(n)
            return self.value

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


class Timer:
    """A named accumulating stopwatch (context manager, re-usable).

    ``with recorder.timer("execute"): ...`` accumulates wall-clock
    seconds and an activation count; one Timer may time many intervals
    (e.g. one per engine run of a sweep).

    Nested or overlapping activations of the *same* Timer merge into
    the outermost interval: re-entering while running no longer resets
    the start (which silently dropped the first interval); instead the
    entry is depth-counted, a one-time WARNING is logged, and only the
    outermost exit accumulates — so wall-clock time is never counted
    twice and never lost.
    """

    __slots__ = ("name", "count", "seconds", "_started", "_depth", "_warned", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.seconds = 0.0
        self._started: "float | None" = None
        self._depth = 0
        self._warned = False
        self._lock = threading.Lock()

    def __enter__(self) -> "Timer":
        with self._lock:
            if self._depth == 0:
                self._started = time.perf_counter()
            elif not self._warned:
                self._warned = True
                _log.warning(
                    "Timer %r re-entered while already running; nested "
                    "activations merge into the outermost interval",
                    self.name,
                )
            self._depth += 1
        return self

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            if self._depth == 0:
                return  # unbalanced __exit__: nothing to close
            self._depth -= 1
            if self._depth == 0 and self._started is not None:
                self.seconds += time.perf_counter() - self._started
                self.count += 1
                self._started = None

    def __repr__(self) -> str:
        return f"Timer({self.name!r}, count={self.count}, seconds={self.seconds:.6f})"


class RunRecorder:
    """Collects one run's structured events, counters and timers.

    ``keep_events=False`` keeps the counters, timers and subscriber
    fan-out but drops the event list — for long-lived scopes (the
    experiment service) where an unbounded stream would only grow.
    """

    def __init__(self, *, keep_events: bool = True):
        self._t0 = time.perf_counter()
        self._keep_events = keep_events
        self.events: list[dict] = []
        self._counters: dict[str, Counter] = {}
        self._timers: dict[str, Timer] = {}
        self._subscribers: list[Callable[[dict], None]] = []
        # The sharded-executor merge loop and the service's worker
        # threads record into one recorder concurrently; the lock keeps
        # the event list and aggregate registries consistent.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Event stream
    # ------------------------------------------------------------------
    def record(self, event: str, **fields: Any) -> dict:
        """Append one event (timestamped relative to recorder birth).

        Every event also bumps its ``events.<name>`` counter, so plain
        occurrence counts (cache hits, shards, pool starts) need no
        separate bookkeeping at the emission site.
        """
        payload = {
            "event": event,
            "t": round(time.perf_counter() - self._t0, 6),
            **fields,
        }
        if self._keep_events:
            with self._lock:
                self.events.append(payload)
        self.incr(f"events.{event}")
        self._dispatch(payload)
        return payload

    def subscribe(self, subscriber: Callable[[dict], None]) -> None:
        """Register a callable receiving every subsequent event dict.

        A subscriber that raises is logged once and dropped — observers
        must never be able to kill the run they observe.
        """
        with self._lock:
            self._subscribers.append(subscriber)

    def _dispatch(self, payload: dict) -> None:
        for subscriber in list(self._subscribers):
            try:
                subscriber(payload)
            except Exception:
                with self._lock:
                    if subscriber in self._subscribers:
                        self._subscribers.remove(subscriber)
                _log.warning(
                    "telemetry subscriber %r raised and was dropped",
                    subscriber,
                    exc_info=True,
                )

    # ------------------------------------------------------------------
    # Typed aggregates
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """Get or create the named :class:`Counter` (thread-safe)."""
        counter = self._counters.get(name)
        if counter is None:
            with self._lock:
                counter = self._counters.setdefault(name, Counter(name))
        return counter

    def counter_values(self, prefix: str = "") -> "dict[str, int]":
        """Snapshot of counter values, optionally filtered by prefix
        (e.g. ``"events.service."`` for the experiment service's own
        event counts)."""
        return {
            name: counter.value
            for name, counter in self._counters.items()
            if name.startswith(prefix)
        }

    def incr(self, name: str, n: int = 1) -> int:
        return self.counter(name).add(n)

    def timer(self, name: str) -> Timer:
        """Get or create the named :class:`Timer` (use as a context
        manager; repeated activations accumulate)."""
        timer = self._timers.get(name)
        if timer is None:
            with self._lock:
                timer = self._timers.setdefault(name, Timer(name))
        return timer

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """The raw event stream as JSON lines (one event per line)."""
        return "".join(json.dumps(event, sort_keys=True) + "\n" for event in self.events)

    def summary(self) -> dict:
        """JSON-pure digest of the run, for ``Result.meta["telemetry"]``.

        The layout (schema version :data:`TELEMETRY_SCHEMA_VERSION`) is
        documented in DESIGN.md §4.  Everything here is derived from
        the event stream and the typed aggregates; nothing feeds back
        into results or cache keys.
        """
        counts = {name: c.value for name, c in self._counters.items()}
        run_start = self._first("run.start")
        run_finish = self._last("run.finish")

        engine_runs = self._select("engine.run.finish")
        engine_starts = self._select("engine.run.start")
        engine_shards = self._select("engine.shard")
        perf_grids = self._select("perf.grid.finish")
        perf_starts = self._select("perf.grid.start")
        perf_shards = self._select("perf.shard")
        pool_starts = self._select("executor.pool.start")

        engine_keys = sorted(
            {e["key"] for e in engine_starts if "key" in e}
        )
        perf_keys = sorted(
            {
                key
                for e in perf_starts
                for key in (e.get("keys") or {}).values()
            }
        )
        dispatch = {
            kind: sum(int(s.get(kind, 0)) for s in engine_shards)
            for kind in ("sparse_blocks", "dense_blocks", "densified_blocks")
        }

        def resources(shards: "list[dict]") -> dict:
            """Worker resource accounting aggregated across shard events
            (CPU sums; RSS is a per-process watermark, so the max)."""
            rss = [
                int(s["max_rss_bytes"])
                for s in shards
                if s.get("max_rss_bytes") is not None
            ]
            return {
                "cpu_seconds": round(
                    sum(float(s.get("cpu_seconds", 0.0)) for s in shards), 6
                ),
                "max_rss_bytes": max(rss) if rss else None,
                "processes": len(
                    {s["pid"] for s in shards if s.get("pid") is not None}
                ),
            }

        summary: dict[str, Any] = {
            "schema": TELEMETRY_SCHEMA_VERSION,
            "events": len(self.events),
            "elapsed_seconds": (
                run_finish.get("elapsed")
                if run_finish is not None
                else round(time.perf_counter() - self._t0, 6)
            ),
            "workers": (run_start or {}).get("workers"),
            "counters": counts,
            "phases": {
                name: {"count": t.count, "seconds": round(t.seconds, 6)}
                for name, t in self._timers.items()
            },
            "cache": {
                "hits": counts.get("events.cache.hit", 0),
                "misses": counts.get("events.cache.miss", 0),
                "stores": counts.get("events.cache.store", 0),
                "corrupt": counts.get("events.cache.corrupt", 0),
            },
            "engine": {
                "runs": len(engine_runs),
                "runs_from_cache": sum(
                    1 for e in engine_runs if e.get("from_cache")
                ),
                "trials": sum(int(e.get("n_trials", 0)) for e in engine_runs),
                "shards": len(engine_shards),
                "blocks": sum(int(s.get("blocks", 0)) for s in engine_shards),
                "shard_seconds": round(
                    sum(float(s.get("elapsed", 0.0)) for s in engine_shards), 6
                ),
                "dispatch": dispatch,
                "resources": resources(engine_shards),
                "cache_keys": engine_keys,
            },
            "perf": {
                "grids": len(perf_grids),
                "cells": sum(len(e.get("labels", ())) for e in perf_starts),
                "cells_from_cache": sum(
                    len(e.get("cached_labels", ())) for e in perf_starts
                ),
                "trials": sum(int(e.get("n_trials", 0)) for e in perf_starts),
                "shards": len(perf_shards),
                "resources": resources(perf_shards),
                "cache_keys": perf_keys,
            },
            "executor": {
                "pools_started": len(pool_starts),
                "start_method": (
                    pool_starts[-1].get("start_method") if pool_starts else None
                ),
                "maps": counts.get("events.executor.map", 0),
            },
        }
        estimator_events = self._select("engine.estimator")
        if estimator_events:
            realized = sum(
                int(e.get("realized_trials", 0)) for e in estimator_events
            )
            weighted_vrf = sum(
                float(e.get("variance_reduction_factor", 1.0))
                * int(e.get("realized_trials", 0))
                for e in estimator_events
            )
            summary["ess"] = round(
                sum(float(e.get("ess", 0.0)) for e in estimator_events), 3
            )
            summary["realized_trials"] = realized
            # Trial-weighted mean across estimator runs: one big tilted
            # run should dominate a handful of pilot blocks.
            summary["variance_reduction_factor"] = round(
                weighted_vrf / realized if realized else 1.0, 6
            )
            summary["estimators"] = sorted(
                {str(e.get("estimator")) for e in estimator_events}
            )
        if run_finish is not None and "error" in run_finish:
            summary["error"] = run_finish["error"]
        # Overall cache-hit status: True when every simulation this run
        # needed was served from cache, False when anything was
        # computed, None when the run did no cached work at all.
        engine_fresh = summary["engine"]["runs"] - summary["engine"]["runs_from_cache"]
        perf_fresh = summary["perf"]["cells"] - summary["perf"]["cells_from_cache"]
        if summary["engine"]["runs"] or summary["perf"]["cells"]:
            summary["from_cache"] = engine_fresh == 0 and perf_fresh == 0
        else:
            summary["from_cache"] = None
        return summary

    # ------------------------------------------------------------------
    def _select(self, event: str) -> "list[dict]":
        return [e for e in self.events if e["event"] == event]

    def _first(self, event: str) -> "dict | None":
        found = self._select(event)
        return found[0] if found else None

    def _last(self, event: str) -> "dict | None":
        found = self._select(event)
        return found[-1] if found else None

    def __repr__(self) -> str:
        return (
            f"RunRecorder(events={len(self.events)}, "
            f"counters={len(self._counters)}, timers={len(self._timers)}, "
            f"subscribers={len(self._subscribers)})"
        )
