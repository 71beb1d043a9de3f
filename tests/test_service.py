"""ExperimentService end-to-end (in-process, no HTTP).

Covers the three admission paths (queued / coalesced / store), the
single-flight dedup guarantee against a *real* session, and the worker
pool's timeout / retry / cancellation policies against a controllable
stub session.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.api import ExperimentSpec, Session
from repro.api.registry import UnknownExperimentError
from repro.api.result import Result, Series
from repro.service import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TIMEOUT,
    ExperimentService,
    QueueFullError,
)


def spec(i: int = 0) -> ExperimentSpec:
    return ExperimentSpec("fig8.reliability", params={"years": [float(i)]})


def make_result(job_spec: ExperimentSpec) -> Result:
    return Result(
        experiment=job_spec.experiment,
        backend="analytical",
        spec=job_spec,
        data={"p": [0.5]},
        series=(Series("p", y=(0.5,), x=(0.0,)),),
    )


class StubSession:
    """A Session stand-in whose run() behaviour each test scripts.

    ``script`` is called once per run attempt with the spec; whatever it
    returns (or raises) is the run's outcome.  ``gate`` (when given)
    blocks every run until the test sets it, which is how the tests pin
    a job in the RUNNING state.
    """

    def __init__(self, script=None, gate: "threading.Event | None" = None):
        self.script = script or make_result
        self.gate = gate
        self.cache = None
        self.workers = 1
        self.closed = False
        self._lock = threading.Lock()
        self._runs_started = 0
        self._runs_completed = 0
        self.order: "list[str]" = []  # completion order of spec hashes

    @property
    def runs_started(self) -> int:
        return self._runs_started

    @property
    def runs_completed(self) -> int:
        return self._runs_completed

    def run(self, job_spec: ExperimentSpec) -> Result:
        with self._lock:
            self._runs_started += 1
        if self.gate is not None:
            assert self.gate.wait(timeout=10.0), "test gate never opened"
        out = self.script(job_spec)
        with self._lock:
            self._runs_completed += 1
            self.order.append(job_spec.content_hash())
        return out

    def close(self) -> None:
        self.closed = True


def stub_service(**overrides) -> ExperimentService:
    overrides.setdefault("session", StubSession())
    overrides.setdefault("workers", 1)
    overrides.setdefault("retry_backoff", 0.001)
    return ExperimentService(**overrides)


def run(coro):
    return asyncio.run(coro)


class TestAdmissionPaths:
    def test_submit_runs_and_resolves(self):
        async def main():
            service = stub_service()
            await service.start()
            try:
                job, via = service.submit(spec(1))
                assert via == "queued"
                assert await job.wait(timeout=5.0)
                assert job.state == DONE
                assert isinstance(job.result, Result)
                assert service.job(job.id) is job
            finally:
                await service.stop()

        run(main())

    def test_resubmission_after_completion_is_served_from_store(self):
        async def main():
            session = StubSession()
            service = stub_service(session=session)
            await service.start()
            try:
                first, _ = service.submit(spec(1))
                await first.wait(timeout=5.0)
                again, via = service.submit(spec(1))
                assert via == "store"
                assert again.from_store and again.state == DONE
                assert session.runs_started == 1  # no second engine run
                assert again.result.to_json() == first.result.to_json()
            finally:
                await service.stop()

        run(main())

    def test_unknown_experiment_rejected_at_admission(self):
        async def main():
            service = stub_service()
            await service.start()
            try:
                with pytest.raises(UnknownExperimentError):
                    service.submit(ExperimentSpec("no.such_figure"))
            finally:
                await service.stop()

        run(main())

    def test_job_lookup_misses_return_none(self):
        async def main():
            service = stub_service()
            await service.start()
            try:
                assert service.job("j999999") is None
                assert service.cancel("j999999") is None
            finally:
                await service.stop()

        run(main())


class TestSingleFlightDedup:
    """The tentpole guarantee, proven against a real Session."""

    def test_many_submitters_one_engine_run(self):
        async def main():
            with Session() as session:
                service = ExperimentService(session=session, workers=2)
                await service.start()
                try:
                    the_spec = spec(42)
                    jobs = [service.submit(the_spec) for _ in range(20)]
                    first_job, first_via = jobs[0]
                    assert first_via == "queued"
                    assert all(j is first_job for j, _ in jobs)
                    assert all(via == "coalesced" for _, via in jobs[1:])
                    assert first_job.submissions == 20

                    assert await first_job.wait(timeout=30.0)
                    assert first_job.state == DONE

                    # Exactly one engine run happened...
                    assert session.runs_started == 1
                    assert session.runs_completed == 1
                    starts = [
                        e
                        for e in session.last_telemetry.events
                        if e["event"] == "run.start"
                    ]
                    assert len(starts) == 1
                    # ...and every waiter sees the same bytes.
                    payload = first_job.result.to_json()
                    again, via = service.submit(the_spec)
                    assert via == "store"
                    assert again.result.to_json() == payload
                    assert session.runs_started == 1

                    stats = service.stats()
                    assert stats["queue"]["coalesced"] == 19
                    assert stats["queue"]["submitted"] == 20
                finally:
                    await service.stop()

        run(main())

    def test_distinct_specs_do_not_coalesce(self):
        async def main():
            session = StubSession()
            service = stub_service(session=session, workers=2)
            await service.start()
            try:
                jobs = [service.submit(spec(i))[0] for i in range(4)]
                for job in jobs:
                    assert await job.wait(timeout=5.0)
                assert session.runs_started == 4
            finally:
                await service.stop()

        run(main())


class TestBackpressure:
    def test_full_queue_rejects_new_specs_but_coalesces_duplicates(self):
        async def main():
            gate = threading.Event()
            service = stub_service(
                session=StubSession(gate=gate), queue_capacity=2
            )
            await service.start()
            try:
                running, _ = service.submit(spec(0))
                await asyncio.sleep(0.05)  # let the worker claim it
                assert running.state == RUNNING
                service.submit(spec(1))
                service.submit(spec(2))
                with pytest.raises(QueueFullError):
                    service.submit(spec(3))
                dup, via = service.submit(spec(1))  # full, but no new work
                assert via == "coalesced"
            finally:
                gate.set()
                await service.stop()

        run(main())


class TestTimeoutsAndRetries:
    @pytest.mark.parametrize(
        "bad", [0, -1, 0.0, float("nan"), float("inf"), True, "5"]
    )
    def test_timeouts_that_are_not_valid_are_rejected(self, bad):
        with pytest.raises(ValueError, match="job_timeout"):
            stub_service(job_timeout=bad)

        async def main():
            service = stub_service()
            await service.start()
            try:
                with pytest.raises(ValueError, match="timeout"):
                    service.submit(spec(1), timeout=bad)
                assert service.stats()["queue"]["submitted"] == 0
            finally:
                await service.stop()

        run(main())

    def test_job_timeout_settles_as_timeout(self):
        async def main():
            def slow(job_spec):
                time.sleep(0.4)
                return make_result(job_spec)

            service = stub_service(
                session=StubSession(script=slow), job_timeout=0.05
            )
            await service.start()
            try:
                job, _ = service.submit(spec(1))
                assert await job.wait(timeout=5.0)
                assert job.state == TIMEOUT
                assert "exceeded" in job.error
            finally:
                await service.stop()

        run(main())

    def test_per_job_timeout_overrides_pool_default(self):
        async def main():
            def slow(job_spec):
                time.sleep(0.1)
                return make_result(job_spec)

            service = stub_service(
                session=StubSession(script=slow), job_timeout=0.01
            )
            await service.start()
            try:
                job, _ = service.submit(spec(1), timeout=5.0)
                assert await job.wait(timeout=5.0)
                assert job.state == DONE
            finally:
                await service.stop()

        run(main())

    def test_transient_failures_retry_then_succeed(self):
        async def main():
            failures = iter([ConnectionError("flaky"), ConnectionError("flaky")])

            def flaky(job_spec):
                try:
                    raise next(failures)
                except StopIteration:
                    return make_result(job_spec)

            service = stub_service(
                session=StubSession(script=flaky), max_retries=2
            )
            await service.start()
            try:
                job, _ = service.submit(spec(1))
                assert await job.wait(timeout=5.0)
                assert job.state == DONE
                assert job.attempts == 3
                # Each retry's emit lands in the ambient worker.run span.
                (span,) = [s for s in job.trace.spans if s.name == "worker.run"]
                retries = [
                    attrs for name, _, attrs in span.events
                    if name == "service.job_retry"
                ]
                assert [r["attempt"] for r in retries] == [1, 2]
                assert all("flaky" in r["error"] for r in retries)
            finally:
                await service.stop()

        run(main())

    def test_broken_engine_pool_retries_on_a_fresh_attempt(self):
        async def main():
            failures = iter([BrokenProcessPool("worker killed")])

            def killed_once(job_spec):
                try:
                    raise next(failures)
                except StopIteration:
                    return make_result(job_spec)

            service = stub_service(
                session=StubSession(script=killed_once), max_retries=2
            )
            await service.start()
            try:
                job, _ = service.submit(spec(1))
                assert await job.wait(timeout=5.0)
                assert job.state == DONE
                assert job.attempts == 2
                (span,) = [s for s in job.trace.spans if s.name == "worker.run"]
                retries = [
                    attrs for name, _, attrs in span.events
                    if name == "service.job_retry"
                ]
                assert [r["attempt"] for r in retries] == [1]
                assert "BrokenProcessPool" in retries[0]["error"]
            finally:
                await service.stop()

        run(main())

    def test_transient_failures_exhaust_retries(self):
        async def main():
            def always_flaky(job_spec):
                raise ConnectionError("still down")

            service = stub_service(
                session=StubSession(script=always_flaky), max_retries=2
            )
            await service.start()
            try:
                job, _ = service.submit(spec(1))
                assert await job.wait(timeout=5.0)
                assert job.state == FAILED
                assert job.attempts == 3
            finally:
                await service.stop()

        run(main())

    def test_failed_store_write_settles_the_job_and_keeps_the_worker(self):
        class Unserializable:
            spec_hash = "0" * 64

            def to_json(self):
                raise TypeError("not serializable")

        async def main():
            results = iter([Unserializable()])
            service = stub_service(
                session=StubSession(
                    script=lambda s: next(results, None) or make_result(s)
                )
            )
            await service.start()
            try:
                job, _ = service.submit(spec(1))
                assert await job.wait(timeout=5.0)
                assert job.state == FAILED
                assert "store write failed" in job.error
                # The one worker survived and runs the next job.
                after, _ = service.submit(spec(2))
                assert await after.wait(timeout=5.0)
                assert after.state == DONE
            finally:
                await service.stop()

        run(main())

    def test_permanent_failures_do_not_retry(self):
        async def main():
            def broken(job_spec):
                raise ValueError("bad parameters")

            service = stub_service(
                session=StubSession(script=broken), max_retries=5
            )
            await service.start()
            try:
                job, _ = service.submit(spec(1))
                assert await job.wait(timeout=5.0)
                assert job.state == FAILED
                assert job.attempts == 1
                assert "bad parameters" in job.error
            finally:
                await service.stop()

        run(main())


class TestCancellation:
    def test_cancel_queued_job(self):
        async def main():
            gate = threading.Event()
            service = stub_service(session=StubSession(gate=gate))
            await service.start()
            try:
                service.submit(spec(0))
                await asyncio.sleep(0.05)  # worker busy on spec(0)
                queued, _ = service.submit(spec(1))
                assert queued.state == QUEUED
                assert service.cancel(queued.id) is True
                assert queued.state == CANCELLED
            finally:
                gate.set()
                await service.stop()

        run(main())

    def test_cancel_running_job_discards_its_result(self):
        async def main():
            gate = threading.Event()
            service = stub_service(session=StubSession(gate=gate))
            await service.start()
            try:
                job, _ = service.submit(spec(1))
                await asyncio.sleep(0.05)
                assert job.state == RUNNING
                assert service.cancel(job.id) is False  # only requested
                gate.set()
                assert await job.wait(timeout=5.0)
                assert job.state == CANCELLED
                assert job.result is None
                assert job.hash not in service.store
            finally:
                await service.stop()

        run(main())

    def test_cancel_done_job_is_a_noop(self):
        async def main():
            service = stub_service()
            await service.start()
            try:
                job, _ = service.submit(spec(1))
                await job.wait(timeout=5.0)
                assert service.cancel(job.id) is False
                assert job.state == DONE
            finally:
                await service.stop()

        run(main())


class TestPriorities:
    def test_higher_priority_jobs_run_first(self):
        async def main():
            gate = threading.Event()
            session = StubSession(gate=gate)
            service = stub_service(session=session)
            await service.start()
            try:
                service.submit(spec(0))  # occupies the only worker
                await asyncio.sleep(0.05)
                low, _ = service.submit(spec(1), priority=0)
                high, _ = service.submit(spec(2), priority=10)
                gate.set()
                assert await low.wait(timeout=5.0)
                assert await high.wait(timeout=5.0)
                assert session.order.index(high.hash) < session.order.index(
                    low.hash
                )
            finally:
                await service.stop()

        run(main())


class TestShutdown:
    def test_graceful_stop_drains_queued_work(self):
        async def main():
            session = StubSession()
            service = stub_service(session=session)
            await service.start()
            jobs = [service.submit(spec(i))[0] for i in range(5)]
            await service.stop(drain=True)
            assert all(job.state == DONE for job in jobs)
            assert session.runs_completed == 5

        run(main())

    def test_fast_stop_cancels_queued_work(self):
        async def main():
            gate = threading.Event()
            service = stub_service(session=StubSession(gate=gate))
            await service.start()
            running, _ = service.submit(spec(0))
            await asyncio.sleep(0.05)
            queued = [service.submit(spec(i))[0] for i in (1, 2)]
            stopper = asyncio.ensure_future(service.stop(drain=False))
            await asyncio.sleep(0.05)
            gate.set()
            await stopper
            assert running.state == DONE
            assert all(job.state == CANCELLED for job in queued)

        run(main())

    def test_injected_sessions_stay_open(self):
        async def main():
            session = StubSession()
            service = stub_service(session=session)
            await service.start()
            await service.stop()
            assert not session.closed

        run(main())

    def test_start_and_stop_are_idempotent(self):
        async def main():
            service = stub_service()
            await service.start()
            await service.start()
            await service.stop()
            await service.stop()

        run(main())


class TestStats:
    def test_stats_are_json_pure_and_complete(self):
        async def main():
            service = stub_service()
            await service.start()
            try:
                job, _ = service.submit(spec(1))
                await job.wait(timeout=5.0)
                service.submit(spec(1))  # store hit
                stats = json.loads(json.dumps(service.stats()))
                assert stats["queue"]["capacity"] == 1024
                assert stats["jobs"]["executed"] == 1
                assert stats["jobs"]["from_store"] == 1
                assert stats["store"]["hits"] == 1
                assert stats["store"]["stores"] == 1
                assert stats["session"]["runs_started"] == 1
                # Both submissions counted: one queued, one store hit.
                assert stats["queue"]["submitted"] + stats["jobs"]["from_store"] == 2
                assert stats["queue"]["coalesced"] == 0
                assert "service_events" not in stats
                # Each count is reported once: no dedup digest, and the
                # store keeps no copy of the queue's coalesced count.
                assert "dedup" not in stats
                assert "coalesced" not in stats["store"]
                assert stats["uptime_seconds"] >= 0
            finally:
                await service.stop()

        run(main())

    def test_stats_counts_equal_the_submission_metrics(self):
        """/stats and /metrics count the same submissions: queued,
        coalesced, store hits, and no 429 rejection on either side."""
        from repro.obs.metrics import MetricsRegistry, parse_exposition

        async def main():
            gate = threading.Event()
            service = stub_service(
                session=StubSession(gate=gate),
                queue_capacity=1,
                registry=MetricsRegistry(),
            )
            await service.start()
            try:
                done, _ = service.submit(spec(0))
                gate.set()
                assert await done.wait(timeout=5.0)
                gate.clear()
                assert service.submit(spec(0))[1] == "store"
                running, _ = service.submit(spec(1))
                await asyncio.sleep(0.05)  # the worker claims it
                assert running.state == RUNNING
                assert service.submit(spec(1))[1] == "coalesced"
                assert service.submit(spec(2))[1] == "queued"
                assert service.submit(spec(2))[1] == "coalesced"
                with pytest.raises(QueueFullError):
                    service.submit(spec(3))
                stats = service.stats()
                vias = parse_exposition(service.metrics_text())[
                    "repro_service_submissions_total"
                ]
                assert stats["queue"]["submitted"] == 5
                assert stats["queue"]["submitted"] == (
                    vias[(("via", "queued"),)] + vias[(("via", "coalesced"),)]
                )
                assert stats["queue"]["coalesced"] == vias[(("via", "coalesced"),)] == 2
                assert stats["jobs"]["from_store"] == vias[(("via", "store"),)] == 1
            finally:
                gate.set()
                await service.stop()

        run(main())

    def test_healthz_reflects_lifecycle(self):
        async def main():
            service = stub_service()
            assert service.healthz()["status"] == "stopped"
            await service.start()
            assert service.healthz()["status"] == "ok"
            await service.stop()
            assert service.healthz()["status"] == "stopped"

        run(main())


class TestRetention:
    def test_settled_submissions_retain_at_most_8kb_each(self, tmp_path):
        """What a long-lived service keeps per settled submission (job
        registry, result store, traces) stays bounded: a settled job
        shares the store's JSON text instead of holding a parsed Result,
        store hits are admitted without parsing, and service-wide counts
        are counters and metric samples, not per-event lists."""
        import gc
        import logging
        import tracemalloc

        from repro.obs.metrics import MetricsRegistry

        def mc_spec(seed: int) -> ExperimentSpec:
            return ExperimentSpec("fig3.coverage", backend="monte_carlo", trials=64,
                                  seed=seed, params={"array_rows": 64})

        async def settle(service, seed: int) -> str:
            job, via = service.submit(mc_spec(seed))
            assert await job.wait(timeout=60.0) and job.state == DONE
            return via

        async def main() -> float:
            service = ExperimentService(workers=2, engine_workers=1,
                                        cache_dir=tmp_path, registry=MetricsRegistry())
            await service.start()
            try:
                for seed in range(1000, 1010):  # warm caches and code paths
                    await settle(service, seed)
                    await settle(service, seed)
                gc.collect()
                tracemalloc.start()
                try:
                    before = tracemalloc.get_traced_memory()[0]
                    n = 60
                    vias = [
                        via
                        for seed in range(1, n + 1)
                        for via in (await settle(service, seed),
                                    await settle(service, seed))
                    ]
                    gc.collect()
                    retained = tracemalloc.get_traced_memory()[0] - before
                finally:
                    tracemalloc.stop()
                assert vias.count("queued") == n and vias.count("store") == n
                return retained / (2 * n)
            finally:
                await service.stop()

        # INFO records of the repro loggers (enabled by an earlier CLI
        # test) would be kept by the test runner's log capture, which is
        # not the service's retention.
        logging.disable(logging.INFO)
        try:
            per_submission = run(main())
        finally:
            logging.disable(logging.NOTSET)
        assert per_submission <= 8 * 1024, f"{per_submission / 1024:.1f} KB"
