"""The per-run telemetry digest: a read-only view of one run's span.

A run's events live in exactly one place: the ``engine.execute``
:class:`~repro.obs.trace.Span` ``Session.run`` opens, which
:func:`repro.obs.emit` appends to.  :class:`RunRecorder` wraps that
span and derives everything else from it:

- :attr:`~RunRecorder.events` — the event dicts
  (``{"event", "t", **fields}``, ``t`` in seconds since the span began);
- :meth:`~RunRecorder.to_jsonl` — the same stream as JSON lines (the
  CLI's ``--telemetry PATH``);
- :meth:`~RunRecorder.summary` — the JSON-pure digest of cache
  behavior, phase timing, engine shard/dispatch statistics and executor
  lifecycle that survives the ``Result`` JSON round-trip as
  ``meta["telemetry"]``.

Nothing is counted or timed alongside the span, so the digest cannot
disagree with the trace.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .trace import Span

__all__ = ["TELEMETRY_SCHEMA_VERSION", "RunRecorder"]

#: Bump when the summary layout changes incompatibly.  2: the
#: ``profile`` block lost its ``schema`` and ``memory`` keys.
TELEMETRY_SCHEMA_VERSION = 2


class RunRecorder:
    """Read-only digest of one run's :class:`~repro.obs.trace.Span`."""

    def __init__(self, span: "Span"):
        self.span = span

    @property
    def events(self) -> "list[dict]":
        """The span's events as ``{"event", "t", **fields}`` dicts."""
        start = self.span.start
        return [
            {"event": name, "t": round(t - start, 6), **(attrs or {})}
            for name, t, attrs in list(self.span.events)
        ]

    def to_jsonl(self) -> str:
        """The raw event stream as JSON lines (one event per line)."""
        return "".join(json.dumps(event, sort_keys=True) + "\n" for event in self.events)

    def summary(self) -> dict:
        """JSON-pure digest of the run, for ``Result.meta["telemetry"]``.

        The layout (schema version :data:`TELEMETRY_SCHEMA_VERSION`) is
        documented in DESIGN.md §4.  Everything here is derived from
        the span's events in one pass; nothing feeds back into results
        or cache keys.
        """
        points = list(self.span.events)
        by_name: "dict[str, list[dict]]" = {}
        for name, _, attrs in points:
            by_name.setdefault(name, []).append(attrs or {})
        counts = {f"events.{name}": len(found) for name, found in by_name.items()}

        def select(event: str) -> "list[dict]":
            return by_name.get(event, [])

        run_start = by_name.get("run.start", [None])[0]
        run_finish = by_name.get("run.finish", [None])[-1]

        engine_runs = select("engine.run.finish")
        engine_starts = select("engine.run.start")
        engine_shards = select("engine.shard")
        perf_grids = select("perf.grid.finish")
        perf_starts = select("perf.grid.start")
        perf_shards = select("perf.shard")
        pool_starts = select("executor.pool.start")

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
            "events": len(points),
            "elapsed_seconds": (
                run_finish.get("elapsed")
                if run_finish is not None
                else round(self.span.trace._now() - self.span.start, 6)
            ),
            "workers": (run_start or {}).get("workers"),
            "counters": counts,
            "phases": (
                {"execute": {"count": 1, "seconds": run_finish.get("elapsed")}}
                if run_finish is not None
                else {}
            ),
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
        estimator_events = select("engine.estimator")
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
