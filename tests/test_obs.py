"""Telemetry core: span recording, the digest, determinism, fault isolation.

Covers the observational contract end to end: :func:`emit` recording
into the ambient span and the :class:`RunRecorder` digest derived from
it, the engine/cache instrumentation (corrupt-entry quarantine), and
the Session-level guarantees — every run carries ``meta["telemetry"]``
with a pinned layout, a traced run's span *is* its event stream,
observation never changes ``data``, and a failed run still closes its
record.
"""

from __future__ import annotations

import json
import logging
import sys
import threading

import numpy as np
import pytest

from repro.api import ExperimentSpec, Result, Session
from repro.engine import ResultCache
from repro.obs import (
    TELEMETRY_SCHEMA_VERSION,
    RunRecorder,
    Trace,
    current_span,
    emit,
    use_span,
)


def record(*events: "tuple[str, dict]") -> RunRecorder:
    """Emit ``(name, fields)`` pairs into a fresh span; digest it."""
    with Trace().span("run") as span:
        for name, fields in events:
            emit(name, **fields)
    return RunRecorder(span)


class TestRecorder:
    def test_record_keeps_order_and_auto_counts(self):
        recorder = record(
            ("cache.hit", {"key": "k1"}),
            ("cache.hit", {"key": "k2"}),
            ("cache.miss", {"key": "k3"}),
        )
        assert [e["event"] for e in recorder.events] == [
            "cache.hit", "cache.hit", "cache.miss",
        ]
        summary = recorder.summary()
        assert summary["counters"] == {
            "events.cache.hit": 2,
            "events.cache.miss": 1,
        }
        assert summary["cache"]["hits"] == 2 and summary["cache"]["misses"] == 1

    def test_execute_phase_is_the_run_finish_elapsed(self):
        recorder = record(("run.start", {}), ("run.finish", {"elapsed": 0.25}))
        summary = recorder.summary()
        assert summary["phases"] == {"execute": {"count": 1, "seconds": 0.25}}
        assert summary["elapsed_seconds"] == 0.25

    def test_event_time_is_seconds_since_span_start(self):
        recorder = record(("a", {}), ("b", {}))
        times = [e["t"] for e in recorder.events]
        assert 0.0 <= times[0] <= times[1] < 60.0

    def test_to_jsonl_is_parseable_event_per_line(self):
        recorder = record(("a", {"x": 1}), ("b", {"y": "text"}))
        lines = [json.loads(line) for line in recorder.to_jsonl().splitlines()]
        assert [e["event"] for e in lines] == ["a", "b"]
        assert all("t" in e for e in lines)
        assert lines == recorder.events

    def test_summary_is_json_pure(self):
        recorder = record(("engine.shard", {"trials": 4, "blocks": 1, "elapsed": 0.1}))
        summary = recorder.summary()
        assert summary["schema"] == TELEMETRY_SCHEMA_VERSION
        assert json.loads(json.dumps(summary)) == summary


class TestSpanThreadSafety:
    """The sharded executor's merge loop and service workers emit into
    one span from many threads at once."""

    THREADS = 8
    PER_THREAD = 200

    def test_concurrent_emit_into_one_span_loses_nothing(self):
        start = threading.Barrier(self.THREADS)

        def hammer(span, tid: int) -> None:
            start.wait()
            # A plain thread starts with an empty context; install the
            # span the way asyncio.to_thread's context copy would.
            with use_span(span):
                for i in range(self.PER_THREAD):
                    emit("engine.shard", tid=tid, i=i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave appends as often as possible
        try:
            with Trace().span("run") as span:
                threads = [
                    threading.Thread(target=hammer, args=(span, i))
                    for i in range(self.THREADS)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)

        recorder = RunRecorder(span)
        total = self.THREADS * self.PER_THREAD
        assert len(recorder.events) == total
        assert recorder.summary()["counters"] == {"events.engine.shard": total}
        seen = {(e["tid"], e["i"]) for e in recorder.events}
        assert len(seen) == total  # every event exactly once
        # The merged stream is still serializable event-per-line.
        assert len(recorder.to_jsonl().splitlines()) == total


class TestEmit:
    def test_emit_without_recorder_is_harmless(self):
        assert current_span() is None
        emit("orphan.event", value=1)  # must not raise

    def test_emit_lands_in_the_innermost_ambient_span(self):
        trace = Trace()
        with trace.span("outer") as outer:
            emit("first")
            with trace.span("inner") as inner:
                emit("second", n=2)
        assert current_span() is None
        assert [name for name, _, _ in outer.events] == ["first"]
        assert RunRecorder(inner).events[0]["event"] == "second"
        assert RunRecorder(inner).events[0]["n"] == 2

    def test_emit_coerces_numpy_scalars_to_json_types(self):
        recorder = record(
            ("np.stuff", {"count": np.int64(3), "ratio": np.float64(0.5),
                          "arr": np.array([1, 2])}),
        )
        event = recorder.events[0]
        assert event["count"] == 3 and type(event["count"]) is int
        assert event["ratio"] == 0.5 and type(event["ratio"]) is float
        assert event["arr"] == [1, 2]
        json.dumps(event)  # fully serializable


#: The recursive key set of ``meta["telemetry"]`` (schema 1), as dotted
#: paths.  Every run carries ``_BASE_KEYS``; the extras are the event
#: counters of each run kind and, for an estimator run, its keys.
_BASE_KEYS = {
    "cache", "cache.corrupt", "cache.hits", "cache.misses",
    "cache.stores", "counters", "counters.events.run.finish",
    "counters.events.run.start", "elapsed_seconds", "engine",
    "engine.blocks", "engine.cache_keys", "engine.dispatch",
    "engine.dispatch.dense_blocks", "engine.dispatch.densified_blocks",
    "engine.dispatch.sparse_blocks", "engine.resources",
    "engine.resources.cpu_seconds", "engine.resources.max_rss_bytes",
    "engine.resources.processes", "engine.runs", "engine.runs_from_cache",
    "engine.shard_seconds", "engine.shards", "engine.trials", "events",
    "executor", "executor.maps", "executor.pools_started",
    "executor.start_method", "from_cache", "perf", "perf.cache_keys",
    "perf.cells", "perf.cells_from_cache", "perf.grids", "perf.resources",
    "perf.resources.cpu_seconds", "perf.resources.max_rss_bytes",
    "perf.resources.processes", "perf.shards", "perf.trials", "phases",
    "phases.execute", "phases.execute.count", "phases.execute.seconds",
    "schema", "workers",
}
_FIG3_SEQUENTIAL_KEYS = _BASE_KEYS | {
    "counters.events.engine.estimator",
    "counters.events.engine.run.finish",
    "counters.events.engine.run.start", "counters.events.engine.shard",
    "counters.events.executor.map", "ess", "estimators",
    "realized_trials", "variance_reduction_factor",
}
_FIG5_KEYS = _BASE_KEYS | {
    "counters.events.executor.map", "counters.events.perf.grid.finish",
    "counters.events.perf.grid.start", "counters.events.perf.shard",
}


def _key_paths(obj, prefix: str = "") -> "set[str]":
    paths = set()
    if isinstance(obj, dict):
        for key, value in obj.items():
            paths.add(prefix + key)
            paths |= _key_paths(value, prefix + key + ".")
    return paths


class TestCacheCorruptQuarantine:
    def test_corrupt_entry_warns_and_quarantines(self, tmp_path, caplog):
        cache = ResultCache(tmp_path)
        path = cache.path_for("deadbeef")
        path.write_bytes(b"this is not an npz archive")
        with caplog.at_level(logging.WARNING, logger="repro.engine.cache"):
            assert cache.load("deadbeef") is None
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert str(path) in warnings[0].getMessage()
        assert not path.exists()
        assert path.with_suffix(".corrupt").exists()
        # Quarantined entries no longer count as cache content.
        assert len(cache) == 0

    def test_subsequent_load_is_a_plain_miss(self, tmp_path, caplog):
        cache = ResultCache(tmp_path)
        cache.path_for("deadbeef").write_bytes(b"junk")
        cache.load("deadbeef")
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="repro.engine.cache"):
            assert cache.load("deadbeef") is None  # miss, not corrupt again
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]

    def test_corrupted_session_cache_recomputes_same_data(self, tmp_path):
        spec = ExperimentSpec("fig3.coverage", trials=64, seed=11)
        with Session(cache_dir=tmp_path) as session:
            first = session.run(spec)
        for entry in tmp_path.glob("*.npz"):
            entry.write_bytes(b"truncated garbage")
        with Session(cache_dir=tmp_path) as session:
            second = session.run(spec)
        assert second.data == first.data
        telemetry = second.telemetry()
        assert telemetry["cache"]["corrupt"] >= 1
        assert telemetry["from_cache"] is False


class TestSessionTelemetry:
    def test_every_run_carries_telemetry_meta(self):
        result = Session().run(ExperimentSpec("fig3.coverage", trials=64, seed=3))
        telemetry = result.telemetry()
        assert telemetry["schema"] == TELEMETRY_SCHEMA_VERSION
        assert telemetry["workers"] == 1
        assert telemetry["engine"]["runs"] >= 1
        assert telemetry["engine"]["trials"] >= 64
        assert telemetry["phases"]["execute"]["count"] == 1
        assert telemetry["elapsed_seconds"] > 0

    def test_analytical_run_has_telemetry_with_no_cache_work(self):
        result = Session().run(ExperimentSpec("fig1.storage"))
        telemetry = result.telemetry()
        assert telemetry["from_cache"] is None
        assert telemetry["engine"]["runs"] == 0

    def test_telemetry_survives_result_json_round_trip(self):
        result = Session().run(ExperimentSpec("fig3.coverage", trials=64, seed=3))
        restored = Result.from_json(result.to_json())
        assert restored == result
        assert restored.telemetry() == result.telemetry()

    def test_cached_rerun_bit_identical_data_only_telemetry_differs(self, tmp_path):
        spec = ExperimentSpec("fig3.coverage", trials=128, seed=5)
        with Session(cache_dir=tmp_path) as session:
            first = session.run(spec)
            second = session.run(spec)
        assert second.data == first.data
        assert second.series == first.series
        assert second.without_telemetry() == first.without_telemetry()
        assert first.telemetry()["from_cache"] is False
        assert second.telemetry()["from_cache"] is True
        assert second.telemetry()["cache"]["hits"] >= 1
        assert second.telemetry()["cache"]["misses"] == 0

    def test_worker_count_changes_schedule_not_results_or_keys(self):
        spec = ExperimentSpec("fig3.coverage", trials=256, seed=9)
        with Session(workers=1) as serial, Session(workers=4) as parallel:
            one = serial.run(spec)
            four = parallel.run(spec)
        assert one.without_telemetry() == four.without_telemetry()
        t1, t4 = one.telemetry(), four.telemetry()
        assert t1["engine"]["trials"] == t4["engine"]["trials"]
        assert t1["engine"]["cache_keys"] == t4["engine"]["cache_keys"]
        assert t1["workers"] == 1 and t4["workers"] == 4
        # The parallel run actually sharded the work.
        assert t4["engine"]["shards"] >= t1["engine"]["shards"]

    def test_last_telemetry_exposes_raw_event_stream(self):
        session = Session()
        assert session.last_telemetry is None
        session.run(ExperimentSpec("fig3.coverage", trials=64, seed=3))
        events = [
            json.loads(line)
            for line in session.last_telemetry.to_jsonl().splitlines()
        ]
        names = [e["event"] for e in events]
        assert names[0] == "run.start" and names[-1] == "run.finish"
        assert "engine.run.start" in names
        assert "engine.shard" in names

    def test_traced_run_span_is_the_event_stream(self):
        """The ``engine.execute`` span and the JSON-lines stream are one
        record: same events, same order, ``run.start`` first, each
        exactly once (the span used to miss ``run.start``)."""
        session = Session()
        trace = Trace()
        with trace.span("root"):
            result = session.run(ExperimentSpec("fig3.coverage", trials=64, seed=3))
        (span,) = [s for s in trace.spans if s.name == "engine.execute"]
        lines = [
            json.loads(line)
            for line in session.last_telemetry.to_jsonl().splitlines()
        ]
        assert [name for name, _, _ in span.events] == [e["event"] for e in lines]
        assert lines[0]["event"] == "run.start"
        assert lines == session.last_telemetry.events
        for event in lines:
            event.pop("t")
        assert [
            {"event": name, **(attrs or {})} for name, _, attrs in span.events
        ] == lines
        telemetry = result.telemetry()
        assert telemetry["events"] == len(lines)
        assert telemetry["trace_id"] == trace.trace_id
        assert telemetry["span_id"] == span.span_id

    def test_untraced_run_records_into_a_span_of_its_own(self):
        session = Session()
        result = session.run(ExperimentSpec("fig1.storage"))
        span = session.last_telemetry.span
        assert span.name == "engine.execute" and span.parent_id is None
        assert span.trace.name == "fig1.storage"
        assert [name for name, _, _ in span.events] == ["run.start", "run.finish"]
        # CLI telemetry gains no keys: trace ids only for ambient traces.
        assert "trace_id" not in result.telemetry()
        assert "span_id" not in result.telemetry()

    def test_telemetry_key_set_is_pinned(self):
        cases = [
            (ExperimentSpec("fig1.storage"), _BASE_KEYS),
            (
                ExperimentSpec("fig3.coverage", backend="monte_carlo", seed=7,
                               params={"tolerance": 0.05}),
                _FIG3_SEQUENTIAL_KEYS,
            ),
            (
                ExperimentSpec("fig5.performance", trials=2,
                               params={"n_cycles": 300}),
                _FIG5_KEYS,
            ),
        ]
        with Session() as session:
            for spec, expected in cases:
                telemetry = session.run(spec).telemetry()
                assert telemetry["schema"] == 2
                assert _key_paths(telemetry) == expected, spec.experiment


class TestProgressFaultIsolation:
    """A run's progress record is its span: a failing run still closes
    it with a ``run.finish`` event that carries the error."""

    def test_failed_run_still_delivers_finish_with_error(self):
        session = Session()
        with pytest.raises(Exception):
            session.run(ExperimentSpec(
                "sweep.mc_coverage", trials=8, seed=1, params={"scheme": "bogus"}
            ))
        events = session.last_telemetry.events
        assert [e["event"] for e in events] == ["run.start", "run.finish"]
        assert "unknown scheme" in events[1]["error"]
        assert events[1]["spec_hash"] == events[0]["spec_hash"]
