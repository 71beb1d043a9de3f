"""ResultCache maintenance: stats() and prune() (TTL + byte budget).

Ages are faked with ``os.utime`` so the TTL tests need no sleeping; the
``cache.evict`` telemetry contract is pinned through a span capture.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.engine import ResultCache
from repro.obs import RunRecorder, Trace


def fill(cache: ResultCache, key: str, *, age_seconds: float = 0.0, kb: int = 1):
    """Store one entry of roughly ``kb`` KiB, backdated ``age_seconds``."""
    payload = {"counts": np.zeros(kb * 256, dtype=np.uint32)}
    path = cache.store(key, payload, {"key": key})
    if age_seconds:
        stamp = time.time() - age_seconds
        os.utime(path, (stamp, stamp))
    return path


class TestStats:
    def test_empty_cache(self, tmp_path):
        stats = ResultCache(tmp_path).stats()
        assert stats == {"entries": 0, "total_bytes": 0, "oldest_mtime": None}

    def test_counts_entries_and_bytes(self, tmp_path):
        cache = ResultCache(tmp_path)
        fill(cache, "aaaa")
        fill(cache, "bbbb")
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["total_bytes"] == sum(
            p.stat().st_size for p in tmp_path.glob("*.npz")
        )

    def test_oldest_mtime_tracks_the_backdated_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        fill(cache, "old", age_seconds=500.0)
        fill(cache, "new")
        assert cache.stats()["oldest_mtime"] < time.time() - 400.0

    def test_non_npz_files_are_invisible(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / "stray.corrupt").write_bytes(b"x" * 100)
        assert cache.stats()["entries"] == 0


class TestPruneTtl:
    def test_removes_only_entries_older_than_ttl(self, tmp_path):
        cache = ResultCache(tmp_path)
        fill(cache, "stale", age_seconds=120.0)
        fill(cache, "fresh", age_seconds=10.0)
        assert cache.prune(ttl_seconds=60.0) == 1
        assert cache.load("fresh") is not None
        assert not cache.path_for("stale").exists()

    def test_no_bounds_is_a_noop(self, tmp_path):
        cache = ResultCache(tmp_path)
        fill(cache, "aaaa", age_seconds=1e6)
        assert cache.prune() == 0
        assert len(cache) == 1

    def test_prune_empty_cache(self, tmp_path):
        assert ResultCache(tmp_path).prune(ttl_seconds=1.0, max_bytes=0) == 0


class TestPruneBytes:
    def test_oldest_entries_evicted_until_under_budget(self, tmp_path):
        cache = ResultCache(tmp_path)
        fill(cache, "oldest", age_seconds=300.0, kb=4)
        fill(cache, "middle", age_seconds=200.0, kb=4)
        newest = fill(cache, "newest", age_seconds=100.0, kb=4)
        budget = newest.stat().st_size + 512  # room for exactly one
        removed = cache.prune(max_bytes=budget)
        assert removed == 2
        assert not cache.path_for("oldest").exists()
        assert not cache.path_for("middle").exists()
        assert cache.path_for("newest").exists()

    def test_budget_large_enough_keeps_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        fill(cache, "aaaa")
        fill(cache, "bbbb")
        assert cache.prune(max_bytes=10**9) == 0
        assert len(cache) == 2

    def test_ttl_pass_runs_before_the_byte_pass(self, tmp_path):
        cache = ResultCache(tmp_path)
        fill(cache, "ancient", age_seconds=1000.0, kb=4)
        keeper = fill(cache, "keeper", age_seconds=1.0, kb=4)
        removed = cache.prune(
            ttl_seconds=500.0, max_bytes=keeper.stat().st_size + 512
        )
        assert removed == 1  # TTL claimed "ancient"; budget already met
        assert cache.path_for("keeper").exists()


class TestEvictTelemetry:
    def test_evictions_emit_cache_evict_with_reason(self, tmp_path):
        cache = ResultCache(tmp_path)
        fill(cache, "stale", age_seconds=120.0)
        fill(cache, "bulky", age_seconds=10.0, kb=8)
        with Trace().span("prune") as span:
            cache.prune(ttl_seconds=60.0, max_bytes=0)
        recorder = RunRecorder(span)
        events = [e for e in recorder.events if e["event"] == "cache.evict"]
        assert {e["key"]: e["reason"] for e in events} == {
            "stale": "ttl",
            "bulky": "max_bytes",
        }
        assert all(e["bytes"] > 0 for e in events)
