"""ResultStore: TTL/eviction, counters, JSON round-trip, disk mirror."""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.api import ExperimentSpec, Session
from repro.api.result import Result, Series
from repro.obs import RunRecorder, Trace
from repro.obs.metrics import MetricsRegistry
from repro.service import ExperimentService, ResultStore


class FakeClock:
    def __init__(self, start: float = 1_000_000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_result(i: int = 0) -> Result:
    spec = ExperimentSpec("fig8.yield", params={"failing_cells": [i]})
    return Result(
        experiment=spec.experiment,
        backend="analytical",
        spec=spec,
        data={"yield": [0.5 + i]},
        series=(Series("yield", y=(0.5 + i,), x=(i,)),),
    )


class TestRoundTrip:
    def test_get_returns_a_lossless_result(self):
        store = ResultStore(ttl_seconds=None)
        result = make_result(3)
        spec_hash = store.put(result)
        assert spec_hash == result.spec_hash
        assert store.get(spec_hash) == result

    def test_get_json_is_the_exact_serialized_text(self):
        store = ResultStore(ttl_seconds=None)
        result = make_result(1)
        store.put(result)
        assert store.get_json(result.spec_hash) == result.to_json()

    def test_miss_returns_none_and_counts(self):
        store = ResultStore()
        assert store.get("no-such-hash") is None
        assert store.misses == 1 and store.hits == 0

    def test_contains_and_len(self):
        store = ResultStore()
        result = make_result()
        assert result.spec_hash not in store
        store.put(result)
        assert result.spec_hash in store
        assert len(store) == 1


class TestTtl:
    def test_entries_expire_after_ttl(self):
        clock = FakeClock()
        store = ResultStore(ttl_seconds=60.0, clock=clock)
        result = make_result()
        store.put(result)
        clock.advance(59.0)
        assert store.get(result.spec_hash) is not None
        clock.advance(2.0)  # 61s total
        assert store.get(result.spec_hash) is None
        assert store.evicted == 1

    def test_sweep_evicts_every_expired_entry(self):
        clock = FakeClock()
        store = ResultStore(ttl_seconds=10.0, clock=clock)
        old = [make_result(i) for i in range(3)]
        for result in old:
            store.put(result)
        clock.advance(11.0)
        fresh = make_result(99)
        store.put(fresh)
        assert store.sweep() == 3
        assert len(store) == 1
        assert store.get(fresh.spec_hash) is not None

    def test_eviction_emits_store_evict_telemetry(self):
        clock = FakeClock()
        store = ResultStore(ttl_seconds=5.0, clock=clock)
        result = make_result()
        with Trace().span("sweep") as span:
            store.put(result)
            clock.advance(6.0)
            store.sweep()
        recorder = RunRecorder(span)
        events = [e for e in recorder.events if e["event"] == "store.evict"]
        assert len(events) == 1
        assert events[0]["key"] == result.spec_hash
        assert events[0]["reason"] == "ttl"

    def test_none_ttl_never_expires(self):
        clock = FakeClock()
        store = ResultStore(ttl_seconds=None, clock=clock)
        result = make_result()
        store.put(result)
        clock.advance(1e9)
        assert store.get(result.spec_hash) is not None
        assert store.sweep() == 0

    def test_bad_ttl_rejected(self):
        with pytest.raises(ValueError):
            ResultStore(ttl_seconds=0)


class TestCounters:
    def test_hit_miss_store_accounting(self):
        store = ResultStore()
        result = make_result()
        store.put(result)
        store.get(result.spec_hash)
        store.get(result.spec_hash)
        store.get("missing")
        stats = store.stats()
        assert stats["hits"] == 2
        assert stats["misses"] == 1
        assert stats["stores"] == 1
        assert stats["hit_rate"] == pytest.approx(2 / 3)

    def test_hit_rate_none_before_any_lookup(self):
        assert ResultStore().stats()["hit_rate"] is None

    def test_stats_are_json_pure(self):
        store = ResultStore()
        store.put(make_result())
        json.dumps(store.stats())


class TestDiskMirror:
    def test_put_persists_and_cold_store_serves(self, tmp_path):
        result = make_result(7)
        store = ResultStore(ttl_seconds=None, root=tmp_path)
        store.put(result)
        assert (tmp_path / f"{result.spec_hash}.json").is_file()
        cold = ResultStore(ttl_seconds=None, root=tmp_path)
        assert cold.get(result.spec_hash) == result
        assert cold.hits == 1

    def test_expired_disk_entry_is_a_miss(self, tmp_path):
        result = make_result()
        store = ResultStore(ttl_seconds=60.0, root=tmp_path)
        store.put(result)
        path = tmp_path / f"{result.spec_hash}.json"
        stale = time.time() - 120.0
        os.utime(path, (stale, stale))
        cold = ResultStore(ttl_seconds=60.0, root=tmp_path)
        assert cold.get(result.spec_hash) is None
        assert not path.exists()

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        result = make_result()
        store = ResultStore(ttl_seconds=None, root=tmp_path)
        store.put(result)
        path = tmp_path / f"{result.spec_hash}.json"
        path.write_text("{not json")
        cold = ResultStore(ttl_seconds=None, root=tmp_path)
        assert cold.get(result.spec_hash) is None

    def test_sweep_removes_stale_disk_files(self, tmp_path):
        result = make_result()
        store = ResultStore(ttl_seconds=60.0, root=tmp_path)
        store.put(result)
        path = tmp_path / f"{result.spec_hash}.json"
        stale = time.time() - 120.0
        os.utime(path, (stale, stale))
        cold = ResultStore(ttl_seconds=60.0, root=tmp_path)
        assert cold.sweep() >= 1
        assert not path.exists()

    def test_eviction_removes_the_mirror_file(self, tmp_path):
        clock = FakeClock(time.time())
        store = ResultStore(ttl_seconds=30.0, root=tmp_path, clock=clock)
        result = make_result()
        store.put(result)
        clock.advance(31.0)
        store.sweep()
        assert not (tmp_path / f"{result.spec_hash}.json").exists()


class TestEngineCacheCoPrune:
    """The service's housekeeping bounds the engine cache by the store's
    TTL; the store itself holds only its own entries."""

    @staticmethod
    def service(tmp_path, **kwargs) -> ExperimentService:
        return ExperimentService(
            cache_dir=tmp_path, registry=MetricsRegistry(), **kwargs
        )

    def test_sweep_forwards_ttl_to_engine_cache(self, tmp_path):
        service = self.service(tmp_path, ttl_seconds=60.0)
        try:
            cache = service.session.cache
            cache.store("deadbeef", {"counts": [1, 2, 3]}, {"n": 1})
            cache.store("cafef00d", {"counts": [4]}, {"n": 1})
            stale = time.time() - 3600.0
            os.utime(cache.path_for("deadbeef"), (stale, stale))
            assert service.sweep() == 1
            assert len(cache) == 1
            assert cache.path_for("cafef00d").exists()
        finally:
            service.session.close()

    def test_one_sweep_expires_every_namespace(self, tmp_path, monkeypatch):
        clock = FakeClock()
        monkeypatch.setattr(time, "time", clock)  # every tier's clock
        service = self.service(tmp_path, ttl_seconds=60.0)
        try:
            cache = service.session.cache

            def generation(i: int) -> "tuple[str, str, str]":
                result = make_result(i)
                cache.store(f"engine{i}", {"counts": [i]}, {"n": i})
                service.store.put(result)
                job, via = service.submit(result.spec)  # persists a trace
                assert via == "store"
                return f"engine{i}", result.spec_hash, job.id

            stale = generation(1)
            clock.advance(61.0)
            fresh = generation(2)
            # memory entry + result mirror, engine entry, trace
            assert service.sweep() == 4
            for (engine, spec_hash, job_id), alive in ((stale, False), (fresh, True)):
                assert cache.path_for(engine).exists() is alive
                assert (tmp_path / "results" / f"{spec_hash}.json").exists() is alive
                assert (tmp_path / "traces" / f"{job_id}.json").exists() is alive
                assert (spec_hash in service.store) is alive
        finally:
            service.session.close()

    def test_stats_embed_engine_cache_shape(self, tmp_path):
        service = self.service(tmp_path)
        try:
            service.session.cache.store("deadbeef", {"counts": [1]}, {"n": 1})
            stats = json.loads(json.dumps(service.stats()))
            assert stats["store"]["engine_cache"]["entries"] == 1
            assert stats["store"]["engine_cache"]["total_bytes"] > 0
        finally:
            service.session.close()

    def test_session_cache_integration(self, tmp_path):
        with Session(cache_dir=tmp_path / "cc") as session:
            session.run("fig3.coverage", trials=64, seed=3)
            service = ExperimentService(session=session, registry=MetricsRegistry())
            stats = service.stats()
            assert stats["store"]["engine_cache"]["entries"] >= 1


class TestJobIds:
    def test_restarted_service_keeps_the_earlier_traces(self, tmp_path):
        """Job ids carry a per-process token: a second service on the
        same cache_dir, whose counter restarts at 1, writes its own
        traces/<job_id>.json instead of overwriting the first one's."""
        result = make_result(9)
        ids = []
        for generation in range(2):
            service = ExperimentService(cache_dir=tmp_path, registry=MetricsRegistry())
            try:
                if generation == 0:
                    service.store.put(result)  # the second one reads the mirror
                job, via = service.submit(result.spec)
                assert via == "store"
                ids.append(job.id)
            finally:
                service.session.close()
        assert ids[0] != ids[1]
        traces = sorted((tmp_path / "traces").glob("*.json"))
        assert sorted(path.stem for path in traces) == sorted(ids)
        trace_ids = {json.loads(path.read_text())["trace"]["trace_id"] for path in traces}
        assert len(trace_ids) == 2

    def test_queued_and_store_hit_jobs_share_one_id_source(self):
        queue = ExperimentService(registry=MetricsRegistry()).queue
        first, second = queue.new_id("j"), queue.new_id("s")
        assert first.startswith("j-") and second.startswith("s-")
        assert first.split("-")[1] == second.split("-")[1]  # one token
        assert (first[-6:], second[-6:]) == ("000001", "000002")
