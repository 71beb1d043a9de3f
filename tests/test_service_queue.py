"""JobQueue semantics: priorities, capacity, single-flight dedup.

The queue is asyncio-native, so every test drives it inside
``asyncio.run`` (the suite has no async test plugin by design — the
wrappers keep the dependency surface stdlib-only).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.api import ExperimentSpec
from repro.api.result import Result, Series
from repro.service import (
    CANCELLED,
    DONE,
    QUEUED,
    RUNNING,
    JobQueue,
    QueueClosedError,
    QueueFullError,
)


def spec(i: int = 0, **overrides) -> ExperimentSpec:
    params = {"failing_cells": [i]}
    params.update(overrides.pop("params", {}))
    return ExperimentSpec("fig8.yield", params=params, **overrides)


def run(coro):
    return asyncio.run(coro)


#: A settled job holds its result as the store's JSON text.
RESULT_JSON = Result(
    experiment="fig8.yield",
    backend="analytical",
    spec=spec(1),
    data={"yield": [0.5]},
    series=(Series("yield", y=(0.5,), x=(1,)),),
).to_json()


class TestSubmit:
    def test_new_jobs_get_distinct_ids_and_hashes(self):
        async def main():
            queue = JobQueue()
            a, deduped_a = queue.submit(spec(1))
            b, deduped_b = queue.submit(spec(2))
            assert not deduped_a and not deduped_b
            assert a.id != b.id
            assert a.hash != b.hash
            assert queue.depth == 2
            assert queue.submitted == 2 and queue.coalesced == 0

        run(main())

    def test_equal_specs_coalesce_onto_one_job(self):
        async def main():
            queue = JobQueue()
            a, _ = queue.submit(spec(1))
            b, deduped = queue.submit(spec(1))
            assert deduped
            assert b is a
            assert a.submissions == 2
            assert queue.depth == 1  # one unit of work
            assert queue.coalesced == 1

        run(main())

    def test_dedup_keys_on_content_hash_not_param_order(self):
        async def main():
            queue = JobQueue()
            a, _ = queue.submit(
                ExperimentSpec("sweep.mc_coverage", params={
                    "scenario": "fixed_cluster",
                    "scenario_params": {"height": 2, "width": 3},
                })
            )
            b, deduped = queue.submit(
                ExperimentSpec("sweep.mc_coverage", params={
                    "scenario_params": {"width": 3, "height": 2},
                    "scenario": "fixed_cluster",
                })
            )
            assert deduped and b is a

        run(main())

    def test_dedup_covers_running_jobs(self):
        async def main():
            queue = JobQueue()
            a, _ = queue.submit(spec(1))
            got = await queue.get()  # now running
            assert got is a and a.state == RUNNING
            b, deduped = queue.submit(spec(1))
            assert deduped and b is a
            assert queue.depth == 0

        run(main())

    def test_released_job_does_not_coalesce_new_submissions(self):
        async def main():
            queue = JobQueue()
            a, _ = queue.submit(spec(1))
            job = await queue.get()
            job.resolve(RESULT_JSON)
            queue.release(job)
            b, deduped = queue.submit(spec(1))
            assert not deduped and b is not a

        run(main())


class TestCapacity:
    def test_full_queue_rejects_new_work(self):
        async def main():
            queue = JobQueue(capacity=2)
            queue.submit(spec(1))
            queue.submit(spec(2))
            with pytest.raises(QueueFullError):
                queue.submit(spec(3))
            assert queue.depth == 2

        run(main())

    def test_full_queue_still_coalesces(self):
        async def main():
            queue = JobQueue(capacity=2)
            a, _ = queue.submit(spec(1))
            queue.submit(spec(2))
            b, deduped = queue.submit(spec(1))  # no new work: admitted
            assert deduped and b is a

        run(main())

    def test_rejected_submission_is_not_counted_as_submitted(self):
        async def main():
            queue = JobQueue(capacity=1)
            queue.submit(spec(1))
            with pytest.raises(QueueFullError):
                queue.submit(spec(2))
            assert queue.submitted == 1 and queue.depth == 1
            queue.submit(spec(1))  # coalesced: admitted, so counted
            assert queue.submitted == 2 and queue.coalesced == 1

        run(main())

    def test_running_jobs_do_not_count_against_capacity(self):
        async def main():
            queue = JobQueue(capacity=1)
            queue.submit(spec(1))
            await queue.get()
            queue.submit(spec(2))  # slot freed by the pop
            assert queue.depth == 1

        run(main())

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            JobQueue(capacity=0)


class TestPriorities:
    def test_higher_priority_pops_first(self):
        async def main():
            queue = JobQueue()
            low, _ = queue.submit(spec(1), priority=0)
            high, _ = queue.submit(spec(2), priority=10)
            mid, _ = queue.submit(spec(3), priority=5)
            assert await queue.get() is high
            assert await queue.get() is mid
            assert await queue.get() is low

        run(main())

    def test_ties_pop_in_submission_order(self):
        async def main():
            queue = JobQueue()
            jobs = [queue.submit(spec(i))[0] for i in range(5)]
            popped = [await queue.get() for _ in range(5)]
            assert popped == jobs

        run(main())

    def test_coalescing_raises_priority_never_lowers(self):
        async def main():
            queue = JobQueue()
            a, _ = queue.submit(spec(1), priority=1)
            queue.submit(spec(2), priority=5)
            queue.submit(spec(1), priority=9)  # raise a above 5
            assert a.priority == 9
            assert (await queue.get()) is a
            queue.submit(spec(3), priority=7)
            c, _ = queue.submit(spec(4), priority=8)
            queue.submit(spec(4), priority=2)  # no lowering
            assert c.priority == 8
            assert (await queue.get()) is c

        run(main())

    def test_priority_raise_twin_entry_never_double_pops(self):
        async def main():
            queue = JobQueue()
            a, _ = queue.submit(spec(1), priority=1)
            queue.submit(spec(1), priority=9)  # leaves a twin heap entry
            b, _ = queue.submit(spec(2), priority=0)
            first = await queue.get()
            second = await queue.get()
            assert first is a and second is b
            assert queue.depth == 0

        run(main())


class TestGetAndClose:
    def test_get_blocks_until_work_arrives(self):
        async def main():
            queue = JobQueue()

            async def feed():
                await asyncio.sleep(0.01)
                queue.submit(spec(1))

            feeder = asyncio.ensure_future(feed())
            job = await asyncio.wait_for(queue.get(), timeout=2.0)
            assert job.state == RUNNING
            await feeder

        run(main())

    def test_closed_and_drained_raises_for_workers(self):
        async def main():
            queue = JobQueue()
            queue.submit(spec(1))
            queue.close()
            # Backlog still drains after close...
            job = await queue.get()
            assert job.state == RUNNING
            # ...then workers are told to exit.
            with pytest.raises(QueueClosedError):
                await queue.get()

        run(main())

    def test_closed_queue_rejects_submissions(self):
        async def main():
            queue = JobQueue()
            queue.close()
            with pytest.raises(QueueClosedError):
                queue.submit(spec(1))

        run(main())


class TestCancel:
    def test_cancel_queued_job_is_terminal(self):
        async def main():
            queue = JobQueue()
            a, _ = queue.submit(spec(1))
            assert queue.cancel(a) is True
            assert a.state == CANCELLED and a.done
            assert queue.depth == 0
            # The hash slot is free again.
            b, deduped = queue.submit(spec(1))
            assert not deduped and b is not a

        run(main())

    def test_cancel_running_job_only_requests(self):
        async def main():
            queue = JobQueue()
            a, _ = queue.submit(spec(1))
            await queue.get()
            assert queue.cancel(a) is False
            assert a.cancel_requested and a.state == RUNNING

        run(main())

    def test_cancel_pending_sweeps_only_queued(self):
        async def main():
            queue = JobQueue()
            running, _ = queue.submit(spec(1))
            queue.submit(spec(2))
            queue.submit(spec(3))
            await queue.get()
            assert queue.cancel_pending() == 2
            assert queue.depth == 0
            assert running.state == RUNNING

        run(main())


class TestJob:
    def test_wait_wakes_every_waiter_with_one_result(self):
        async def main():
            queue = JobQueue()
            job, _ = queue.submit(spec(1))

            async def waiter():
                assert await job.wait(timeout=2.0)
                return job.result_json

            tasks = [asyncio.ensure_future(waiter()) for _ in range(8)]
            await asyncio.sleep(0)  # park the waiters
            (await queue.get()).resolve(RESULT_JSON)
            results = await asyncio.gather(*tasks)
            assert results == [RESULT_JSON] * 8
            assert job.state == DONE

        run(main())

    def test_wait_timeout_returns_false(self):
        async def main():
            queue = JobQueue()
            job, _ = queue.submit(spec(1))
            assert await job.wait(timeout=0.01) is False
            assert job.state == QUEUED

        run(main())

    def test_settle_is_once_only(self):
        async def main():
            queue = JobQueue()
            job, _ = queue.submit(spec(1))
            await queue.get()
            job.resolve(RESULT_JSON)
            job.resolve("{}")  # ignored: already done
            job.reject(CANCELLED, "late cancel")  # ignored: already done
            assert job.state == DONE and job.result_json == RESULT_JSON
            assert job.result.to_json() == RESULT_JSON

        run(main())

    def test_payload_is_json_pure(self):
        import json

        async def main():
            queue = JobQueue()
            job, _ = queue.submit(spec(1), priority=3, timeout=5.0)
            payload = job.to_payload()
            round_tripped = json.loads(json.dumps(payload))
            assert round_tripped["id"] == job.id
            assert round_tripped["state"] == QUEUED
            assert round_tripped["hash"] == job.hash
            assert round_tripped["priority"] == 3
            assert round_tripped["timeout"] == 5.0
            assert round_tripped["spec"]["experiment"] == "fig8.yield"

        run(main())
