"""Profiling layer: sampler, watermarks, rusage, Session integration.

The load-bearing guarantees pinned here:

- the sampling profiler is idempotent, restartable, and captures a
  busy thread's stack without deadlocking it;
- tracemalloc watermark phases nest correctly (parent peak ≥ child
  peak) and never stop tracing they did not start;
- ``Session.run(profile=...)`` is observational by contract — the
  profiled result is bit-identical to the unprofiled one modulo
  ``meta["telemetry"]``, including against a cached rerun;
- per-shard resource accounting flows through the runner chunk stats
  into the telemetry ``resources`` aggregate.
"""

from __future__ import annotations

import threading
import time
import tracemalloc

import pytest

from repro.api import ExperimentSpec, Session
from repro.obs import (
    DEFAULT_HZ,
    PROFILE_SCHEMA_VERSION,
    MemoryWatermarks,
    ProfileConfig,
    RunProfiler,
    SamplingProfiler,
    current_profiler,
    memory_phase,
    process_usage,
    usage_delta,
)


def _spin(stop: threading.Event) -> None:
    """A recognizable busy loop for the sampler to catch."""
    while not stop.is_set():
        sum(range(200))


class TestSamplingProfiler:
    def test_rejects_non_positive_hz(self):
        with pytest.raises(ValueError):
            SamplingProfiler(0)
        with pytest.raises(ValueError):
            SamplingProfiler(-5)

    def test_start_stop_idempotent_and_restartable(self):
        profiler = SamplingProfiler(hz=500)
        assert not profiler.running
        profiler.start()
        first_thread = profiler._thread
        profiler.start()  # second start is a no-op, same thread
        assert profiler._thread is first_thread
        assert profiler.running
        profiler.stop()
        profiler.stop()  # second stop is a no-op
        assert not profiler.running
        d1 = profiler.duration_seconds
        assert d1 > 0
        profiler.start()  # restart resumes the same counts
        time.sleep(0.02)
        profiler.stop()
        assert profiler.duration_seconds > d1

    def test_captures_busy_thread_stack(self):
        stop = threading.Event()
        worker = threading.Thread(target=_spin, args=(stop,), name="spinner")
        worker.start()
        try:
            with SamplingProfiler(hz=500) as profiler:
                # The spinner competes for the GIL, and a busy host can
                # starve the sampler: keep sampling past the first 0.2 s
                # until the window holds enough samples.
                deadline = time.monotonic() + 5.0
                time.sleep(0.2)
                while profiler.samples <= 10 and time.monotonic() < deadline:
                    time.sleep(0.05)
        finally:
            stop.set()
            worker.join()
        payload = profiler.to_dict()
        assert payload["samples"] > 10
        assert "spinner" in payload["threads_observed"]
        assert any("_spin" in stack for stack in payload["stacks"])
        # collapsed stacks are root → leaf and ;-joined
        spin_stack = next(s for s in payload["stacks"] if "_spin" in s)
        assert spin_stack.split(";")[-1].endswith("_spin")

    def test_excludes_its_own_sampler_thread(self):
        with SamplingProfiler(hz=500) as profiler:
            time.sleep(0.05)
        assert "repro-profiler" not in profiler.to_dict()["threads_observed"]
        assert not any("_sample_once" in s for s in profiler.collapsed())

    def test_collapsed_text_round_trips_counts(self):
        profiler = SamplingProfiler()
        profiler._counts = {"a;b": 3, "a;c": 1}
        text = profiler.collapsed_text()
        assert text.splitlines() == ["a;b 3", "a;c 1"]

    def test_max_stack_depth_caps_frames(self):
        def recurse(n: int, stop: threading.Event) -> None:
            if n > 0:
                recurse(n - 1, stop)
            else:
                stop.wait()

        stop = threading.Event()
        worker = threading.Thread(target=recurse, args=(100, stop))
        worker.start()
        try:
            with SamplingProfiler(hz=500, max_stack_depth=8) as profiler:
                time.sleep(0.05)
        finally:
            stop.set()
            worker.join()
        assert all(
            len(stack.split(";")) <= 8 for stack in profiler.collapsed()
        )


class TestMemoryWatermarks:
    def test_phases_record_peaks_and_nest(self):
        with MemoryWatermarks() as mem:
            with mem.phase("outer"):
                with mem.phase("inner"):
                    blob = bytearray(4_000_000)
                    del blob
        phases = mem.to_dict()["phases"]
        assert phases["inner"]["count"] == 1
        assert phases["inner"]["peak_bytes"] >= 4_000_000
        # parent folds the child's peak back in
        assert phases["outer"]["peak_bytes"] >= phases["inner"]["peak_bytes"]
        assert not tracemalloc.is_tracing()

    def test_leaves_preexisting_tracing_running(self):
        tracemalloc.start()
        try:
            mem = MemoryWatermarks().start()
            with mem.phase("p"):
                pass
            mem.stop()
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()

    def test_phase_without_start_is_a_noop(self):
        mem = MemoryWatermarks()
        with mem.phase("ignored"):
            pass
        assert mem.to_dict()["phases"] == {}

    def test_repeat_phase_accumulates_count(self):
        with MemoryWatermarks() as mem:
            for _ in range(3):
                with mem.phase("loop"):
                    pass
        assert mem.to_dict()["phases"]["loop"]["count"] == 3


class TestResourceAccounting:
    def test_process_usage_shape(self):
        snap = process_usage()
        assert snap["pid"] > 0
        assert snap["cpu_seconds"] >= 0
        assert snap["wall_seconds"] > 0
        if snap["max_rss_bytes"] is not None:
            assert snap["max_rss_bytes"] > 1_000_000  # > 1 MB, i.e. scaled

    def test_usage_delta_accrues_cpu(self):
        before = process_usage()
        deadline = time.perf_counter() + 0.05
        while time.perf_counter() < deadline:
            sum(range(1000))
        delta = usage_delta(before)
        assert delta["cpu_seconds"] > 0
        assert delta["wall_seconds"] >= 0.05
        assert delta["pid"] == before["pid"]


class TestProfileConfig:
    def test_coerce_none_and_false_disable(self):
        assert ProfileConfig.coerce(None) is None
        assert ProfileConfig.coerce(False) is None

    def test_coerce_true_gives_defaults(self):
        config = ProfileConfig.coerce(True)
        assert config == ProfileConfig()
        assert config.hz == DEFAULT_HZ

    def test_coerce_number_sets_hz(self):
        assert ProfileConfig.coerce(250).hz == 250.0

    def test_coerce_mapping_and_passthrough(self):
        config = ProfileConfig.coerce({"hz": 50, "memory": False})
        assert config.hz == 50 and config.memory is False
        assert ProfileConfig.coerce(config) is config

    def test_coerce_rejects_garbage(self):
        with pytest.raises(TypeError):
            ProfileConfig.coerce("yes please")


class TestRunProfiler:
    def test_ambient_profiler_and_memory_phase(self):
        assert current_profiler() is None
        with RunProfiler() as profiler:
            assert current_profiler() is profiler
            with memory_phase("test.phase"):
                pass
        assert current_profiler() is None
        profile = profiler.profile()
        assert profile["schema"] == PROFILE_SCHEMA_VERSION
        assert "test.phase" in profile["memory"]["phases"]
        assert profile["process"]["cpu_seconds"] >= 0

    def test_memory_phase_is_noop_without_profiler(self):
        with memory_phase("nobody.listening"):
            pass  # must not raise or start tracemalloc
        assert not tracemalloc.is_tracing()

    def test_memory_disabled_by_config(self):
        with RunProfiler(ProfileConfig(memory=False)) as profiler:
            with memory_phase("ignored"):
                pass
        assert "memory" not in profiler.profile()

    def test_digest_summarizes_without_stacks(self):
        profiler = RunProfiler(ProfileConfig(hz=500))
        with profiler:
            time.sleep(0.02)
        digest = profiler.digest()
        assert set(digest) == {"hz", "samples", "unique_stacks", "duration_seconds"}
        assert "stacks" not in digest


_SPEC = ExperimentSpec("fig3.coverage", trials=512, seed=2007)


class TestSessionIntegration:
    def test_profile_attaches_to_telemetry_only(self):
        result = Session().run(_SPEC, profile=True)
        profile = result.telemetry()["profile"]
        assert profile["schema"] == PROFILE_SCHEMA_VERSION
        assert profile["samples"] >= 0
        assert "profile" not in result.data_dict()

    def test_profiled_result_bit_identical_to_unprofiled(self):
        plain = Session().run(_SPEC)
        profiled = Session().run(_SPEC, profile=True)
        assert plain.telemetry().get("profile") is None
        assert profiled.telemetry().get("profile") is not None
        assert plain.without_telemetry() == profiled.without_telemetry()

    def test_cached_rerun_with_profile_stays_bit_identical(self, tmp_path):
        session = Session(cache_dir=tmp_path / "cache")
        first = session.run(_SPEC, profile=True)
        second = session.run(_SPEC, profile=True)  # cache hit
        assert second.telemetry()["cache"]["hits"] > 0
        assert first.without_telemetry() == second.without_telemetry()

    def test_profile_never_reaches_the_spec_or_cache_key(self, tmp_path):
        session = Session(cache_dir=tmp_path / "cache")
        profiled = session.run(_SPEC, profile=True)
        plain = session.run(_SPEC)  # must hit the same cache entry
        assert plain.telemetry()["cache"]["hits"] > 0
        assert profiled.without_telemetry() == plain.without_telemetry()

    def test_worker_resource_telemetry_aggregates(self):
        result = Session().run(_SPEC, profile=True)
        resources = result.telemetry()["engine"]["resources"]
        assert resources["cpu_seconds"] >= 0
        assert resources["processes"] >= 1
        if resources["max_rss_bytes"] is not None:
            assert resources["max_rss_bytes"] > 1_000_000

    def test_memory_phases_cover_the_engine_run(self):
        result = Session().run(_SPEC, profile=True)
        phases = result.telemetry()["profile"]["memory"]["phases"]
        assert "engine.run" in phases

    def test_concurrent_profiled_runs_do_not_deadlock(self):
        results: "dict[int, object]" = {}
        errors: "list[BaseException]" = []

        def run(i: int) -> None:
            try:
                spec = ExperimentSpec(
                    "fig8.reliability", params={"years": [float(i)]}
                )
                results[i] = Session().run(spec, profile=True)
            except BaseException as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not any(t.is_alive() for t in threads), "profiled runs deadlocked"
        assert not errors
        assert len(results) == 2
        for result in results.values():
            assert result.telemetry()["profile"]["schema"] == PROFILE_SCHEMA_VERSION

    def test_profile_false_is_inert(self):
        result = Session().run(_SPEC, profile=False)
        assert result.telemetry().get("profile") is None


class TestTraceMonotonicTiming:
    def test_span_timing_survives_wall_clock_steps(self, monkeypatch):
        """Span durations come from perf_counter offsets, so a wall-clock
        step (NTP) mid-span cannot produce negative or inflated times."""
        from repro.obs.trace import Trace

        trace = Trace(name="ntp")
        with trace.span("work") as span:
            # Simulate an NTP step backwards: time.time() jumps one hour.
            monkeypatch.setattr(time, "time", lambda: trace.created - 3600.0)
            time.sleep(0.01)
        assert span.duration is not None
        assert 0.0 < span.duration < 5.0

    def test_spans_are_monotonic_within_a_trace(self):
        from repro.obs.trace import Trace

        trace = Trace()
        with trace.span("first") as a:
            pass
        with trace.span("second") as b:
            pass
        assert b.start >= a.end >= a.start
