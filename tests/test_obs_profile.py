"""Profiling layer: sampler, rusage, Session integration.

The load-bearing guarantees pinned here:

- the sampling profiler is idempotent, restartable, and captures a
  busy thread's stack without deadlocking it;
- a run's profile samples only the thread that ran it, so concurrent
  runs never see each other's stacks, and profiling never turns on
  tracemalloc;
- ``Session.run(profile=True)`` is observational by contract — the
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
    RunProfiler,
    SamplingProfiler,
    process_usage,
    usage_delta,
)
from repro.obs.profile import MAX_STACK_DEPTH


def _spin(stop: threading.Event, spinning: threading.Event) -> None:
    """A recognizable busy loop for the sampler to catch."""
    spinning.set()
    while not stop.is_set():
        sum(range(200))


def _sample_until(profiler: SamplingProfiler, samples: int) -> None:
    """Keep sampling until the window holds ``samples`` samples.

    A busy host can starve the sampler thread; the 5 s deadline bounds
    the wait, and the caller's assertions report a shortfall.
    """
    deadline = time.monotonic() + 5.0
    while profiler.samples < samples and time.monotonic() < deadline:
        time.sleep(0.02)


class TestSamplingProfiler:
    def test_start_stop_idempotent_and_restartable(self):
        profiler = SamplingProfiler()
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
        stop, spinning = threading.Event(), threading.Event()
        worker = threading.Thread(
            target=_spin, args=(stop, spinning), name="spinner"
        )
        worker.start()
        try:
            assert spinning.wait(timeout=5.0)
            with SamplingProfiler(worker.ident) as profiler:
                _sample_until(profiler, 11)
        finally:
            stop.set()
            worker.join(timeout=5.0)
        assert not worker.is_alive()
        payload = profiler.to_dict()
        assert payload["hz"] == DEFAULT_HZ
        assert payload["samples"] > 10
        assert payload["threads_observed"] == ["spinner"]
        # Collapsed stacks are root → leaf and ;-joined.  A sample may
        # land inside a callee of _spin (Event.is_set), so _spin is the
        # leaf of some stacks, not all, but always sits below Thread.run.
        stacks = [stack.split(";") for stack in payload["stacks"]]
        assert any(frames[-1].endswith(":_spin") for frames in stacks)
        for frames in stacks:
            spin = next(i for i, f in enumerate(frames) if f.endswith(":_spin"))
            assert frames.index("threading:Thread.run") < spin

    def test_excludes_its_own_sampler_thread(self):
        with SamplingProfiler() as profiler:
            _sample_until(profiler, 2)
        assert profiler.samples >= 2
        assert "repro-profiler" not in profiler.to_dict()["threads_observed"]
        assert not any("_sample_once" in s for s in profiler.collapsed())

    def test_collapsed_text_round_trips_counts(self):
        profiler = SamplingProfiler()
        profiler._counts = {"a;b": 3, "a;c": 1}
        text = profiler.collapsed_text()
        assert text.splitlines() == ["a;b 3", "a;c 1"]

    def test_max_stack_depth_caps_frames(self):
        def recurse(n: int, deep: threading.Event, stop: threading.Event) -> None:
            if n > 0:
                recurse(n - 1, deep, stop)
            else:
                deep.set()
                stop.wait()

        deep, stop = threading.Event(), threading.Event()
        worker = threading.Thread(
            target=recurse, args=(MAX_STACK_DEPTH + 36, deep, stop)
        )
        worker.start()
        try:
            assert deep.wait(timeout=5.0)
            with SamplingProfiler(worker.ident) as profiler:
                _sample_until(profiler, 2)
        finally:
            stop.set()
            worker.join(timeout=5.0)
        stacks = profiler.collapsed()
        assert stacks
        assert all(len(stack.split(";")) == MAX_STACK_DEPTH for stack in stacks)


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


class TestRunProfiler:
    def test_digest_summarizes_without_stacks(self):
        profiler = RunProfiler()
        with profiler:
            time.sleep(0.02)
        digest = profiler.digest()
        assert set(digest) == {"hz", "samples", "unique_stacks", "duration_seconds"}
        assert "stacks" not in digest


_SPEC = ExperimentSpec("fig3.coverage", trials=512, seed=2007)

#: Every key of a run's profile: the sampler's payload plus the
#: process's rusage delta.  No tracemalloc phase tree, no own schema.
_PROFILE_KEYS = {
    "hz", "samples", "duration_seconds", "sampling_seconds", "stacks",
    "threads_observed", "process",
}


class TestSessionIntegration:
    def test_profile_attaches_to_telemetry_only(self):
        result = Session().run(_SPEC, profile=True)
        profile = result.telemetry()["profile"]
        assert set(profile) == _PROFILE_KEYS
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

    def test_profiled_run_leaves_tracemalloc_off(self, monkeypatch):
        from repro.engine.executor import SharedExecutor

        tracing: "list[bool]" = []
        original_map = SharedExecutor.map

        def spy(self, fn, payloads):
            tracing.append(tracemalloc.is_tracing())
            return original_map(self, fn, payloads)

        monkeypatch.setattr(SharedExecutor, "map", spy)
        result = Session().run(_SPEC, profile=True)
        assert tracing and not any(tracing)
        assert not tracemalloc.is_tracing()
        rss = result.telemetry()["profile"]["process"]["max_rss_bytes"]
        if rss is not None:
            assert rss > 1_000_000

    def test_profile_takes_only_a_bool(self):
        for value in (47, 47.0, {"hz": 47}, None, "yes"):
            with pytest.raises(TypeError, match="profile= takes a bool"):
                Session().run(_SPEC, profile=value)

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
            assert set(result.telemetry()["profile"]) == _PROFILE_KEYS

    def test_concurrent_runs_sample_only_their_own_thread(self):
        """A fig3 Monte Carlo run and a fig5 perf run, profiled side by
        side in one process: each profile holds its own thread only, so
        no fig3 stack carries a repro.perf frame."""
        specs = {
            "fig3": ExperimentSpec("fig3.coverage", trials=131072, seed=2007),
            "fig5": ExperimentSpec(
                "fig5.performance", trials=2, params={"n_cycles": 1000}
            ),
        }
        barrier = threading.Barrier(len(specs), timeout=30.0)
        profiles: "dict[str, dict]" = {}
        errors: "list[BaseException]" = []

        def run(name: str) -> None:
            try:
                barrier.wait()
                result = Session().run(specs[name], profile=True)
                profiles[name] = result.telemetry()["profile"]
            except BaseException as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = {
            name: threading.Thread(target=run, args=(name,), name=f"run-{name}")
            for name in specs
        }
        for t in threads.values():
            t.start()
        for t in threads.values():
            t.join(timeout=120.0)
        assert not any(t.is_alive() for t in threads.values())
        assert not errors, errors
        for name, profile in profiles.items():
            assert profile["samples"] > 0, name
            assert profile["threads_observed"] == [f"run-{name}"], name
        assert not any("repro.perf" in stack for stack in profiles["fig3"]["stacks"])
        assert any("repro.perf" in stack for stack in profiles["fig5"]["stacks"])

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
