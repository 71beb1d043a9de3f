"""SharedExecutor: persistence, explicit start methods, spawn safety,
and bounded failure when a worker dies.

The executor is pure scheduling: any context, any worker count and any
degree of pool reuse must reproduce the single-worker results bit for
bit.  The spawn tests are the satellite guarantee that nothing on the
worker path relies on fork's inherited state (workers re-import repro
and rebuild decoders from pickled specs).  The fault-injection tests
kill a worker mid-map: that must surface as ``BrokenProcessPool`` in
bounded time (never a hang), and the executor must recover.
"""

from __future__ import annotations

import contextvars
import logging
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.api import ExperimentSpec, Session
from repro.engine import (
    EngineSpec,
    SharedExecutor,
    resolve_mp_context,
    run_experiment,
)
from repro.scenarios import ClusteredMbuScenario
from repro.perf import run_performance_grid
from repro.cmp.config import ProtectionConfig, lean_cmp_config
from repro.workloads import get_profile

SPEC = EngineSpec(rows=64, data_bits=64, interleave_degree=4,
                  horizontal_code="EDC8", vertical_groups=32)
MODEL = ClusteredMbuScenario.mostly_single_bit(0.3)


def _square(x):
    return x * x


def _die_on_one(x):
    """Payload that SIGKILLs its own worker process on ``x == 1``."""
    if x == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return x


def _map_with_deadline(executor, func, payloads, deadline=10.0):
    """Run ``executor.map`` in a daemon thread joined with a timeout.

    Returns ``("ok", value)`` or ``("raised", exc)``; a map still
    running at the deadline fails the test instead of hanging the
    suite.
    """
    outcome = []

    def target():
        try:
            outcome.append(("ok", executor.map(func, payloads)))
        except BaseException as exc:
            outcome.append(("raised", exc))

    # Carry the ambient trace span into the thread, so emitted events
    # land where the test reads them.
    context = contextvars.copy_context()
    thread = threading.Thread(target=context.run, args=(target,), daemon=True)
    thread.start()
    thread.join(timeout=deadline)
    if thread.is_alive():
        pytest.fail(f"executor.map did not return within {deadline}s")
    return outcome[0]


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` is a live (non-zombie) process."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    # A zombie still answers signal 0; procfs (where present) tells.
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


class TestResolveContext:
    def test_default_is_fork_on_linux_else_platform_default(self):
        context = resolve_mp_context()
        if sys.platform.startswith("linux"):
            assert context.get_start_method() == "fork"
        else:
            # Never override the platform's own (safety-motivated) choice.
            expected = multiprocessing.get_context().get_start_method()
            assert context.get_start_method() == expected

    def test_explicit_name_and_context_object(self):
        assert resolve_mp_context("spawn").get_start_method() == "spawn"
        ctx = multiprocessing.get_context("spawn")
        assert resolve_mp_context(ctx) is ctx

    def test_unknown_name_fails_eagerly(self):
        with pytest.raises(ValueError):
            resolve_mp_context("definitely-not-a-start-method")


class TestSharedExecutor:
    def test_single_worker_never_builds_a_pool(self):
        executor = SharedExecutor(workers=1)
        assert executor.map(_square, [1, 2, 3]) == [1, 4, 9]
        assert not executor.started
        executor.close()

    def test_single_payload_runs_inline(self):
        executor = SharedExecutor(workers=4)
        assert executor.map(_square, [5]) == [25]
        assert not executor.started
        executor.close()

    def test_pool_is_lazy_persistent_and_closable(self):
        with SharedExecutor(workers=2) as executor:
            assert not executor.started
            assert executor.map(_square, [1, 2, 3, 4]) == [1, 4, 9, 16]
            assert executor.started
            # Reuse: same pool serves a second map.
            assert executor.map(_square, [7, 8]) == [49, 64]
            assert executor.started
        assert not executor.started
        # close() is idempotent and the executor stays usable inline.
        executor.close()
        assert executor.map(_square, [3]) == [9]

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            SharedExecutor(workers=0)


class TestEngineOnExecutor:
    def test_reused_executor_matches_serial(self):
        serial = run_experiment(SPEC, MODEL, 512, seed=21, block_size=128)
        with SharedExecutor(workers=2) as executor:
            first = run_experiment(SPEC, MODEL, 512, seed=21, block_size=128,
                                   executor=executor)
            second = run_experiment(SPEC, MODEL, 512, seed=21, block_size=128,
                                    executor=executor)
        for result in (first, second):
            assert np.array_equal(result.verdicts, serial.verdicts)
            assert result.counts == serial.counts

    def test_spawn_context_is_bit_identical(self):
        serial = run_experiment(SPEC, MODEL, 512, seed=22, block_size=128)
        with SharedExecutor(workers=2, mp_context="spawn") as executor:
            spawned = run_experiment(SPEC, MODEL, 512, seed=22, block_size=128,
                                     executor=executor)
        assert np.array_equal(spawned.verdicts, serial.verdicts)
        assert spawned.counts == serial.counts

    def test_spawn_executor_for_perf_backend(self):
        cmp_cfg = lean_cmp_config()
        profile = get_profile("Web")
        protections = {
            "baseline": ProtectionConfig(label="baseline"),
            "l1_parity": ProtectionConfig(label="L1 parity", protect_l1=True),
        }
        (serial,) = run_performance_grid(
            [(cmp_cfg, profile)], protections,
            n_cycles=400, n_trials=8, seed=3, block_size=4,
        )
        with SharedExecutor(workers=2, mp_context="spawn") as executor:
            (shared,) = run_performance_grid(
                [(cmp_cfg, profile)], protections,
                n_cycles=400, n_trials=8, seed=3, block_size=4,
                executor=executor,
            )
        for label in protections:
            assert np.array_equal(
                serial[label].aggregate_ipc, shared[label].aggregate_ipc
            )
            assert np.array_equal(
                serial[label].port_steals, shared[label].port_steals
            )


class TestSessionOwnership:
    def test_session_executor_is_persistent_and_closable(self):
        with Session(workers=2) as session:
            executor = session.executor
            assert executor is session.executor  # one executor per session
            assert executor.workers == 2
            result = session.run(
                ExperimentSpec("fig3.coverage", trials=256, seed=11)
            )
            assert result.data_dict()["estimates"]
        assert not executor.started  # context exit tore the pool down

    def test_close_is_idempotent_and_rebuilds_lazily(self):
        spec = ExperimentSpec("fig3.coverage", trials=256, seed=13)
        session = Session(workers=2)
        try:
            before = session.run(spec).without_telemetry()
            session.close()
            session.close()
            assert not session.executor.started
            # A run after close() restarts the pool and returns the
            # same bytes.
            after = session.run(spec).without_telemetry()
            assert after.to_json() == before.to_json()
        finally:
            session.close()

    def test_session_runs_match_across_worker_counts(self):
        spec = ExperimentSpec("fig3.coverage", trials=256, seed=12)
        with Session(workers=1) as one, Session(workers=4) as four:
            # Equal modulo meta["telemetry"], which records the (different)
            # shard schedules; the payloads themselves are bit-identical.
            assert one.run(spec).without_telemetry() == (
                four.run(spec).without_telemetry()
            )


class TestLifecycleSafety:
    """close() idempotent under concurrency; pool creation race-free."""

    def test_concurrent_close_is_idempotent(self):
        import threading

        executor = SharedExecutor(workers=2)
        executor.map(_square, range(8))  # force the pool into existence
        assert executor.started
        barrier = threading.Barrier(8)

        def closer():
            barrier.wait()
            executor.close()

        threads = [threading.Thread(target=closer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads)
        assert not executor.started
        executor.close()  # still a no-op afterwards

    def test_concurrent_map_creates_exactly_one_pool(self):
        import threading

        executor = SharedExecutor(workers=2)
        barrier = threading.Barrier(6)
        pools = []

        def mapper():
            barrier.wait()
            executor.map(_square, range(4))
            pools.append(executor._pool)

        threads = [threading.Thread(target=mapper) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        try:
            assert len(set(map(id, pools))) == 1
        finally:
            executor.close()

    def test_pool_rebuilds_after_close(self):
        executor = SharedExecutor(workers=2)
        assert executor.map(_square, range(8)) == [x * x for x in range(8)]
        executor.close()
        assert not executor.started
        # A later map lazily rebuilds the pool with identical results.
        assert executor.map(_square, range(8)) == [x * x for x in range(8)]
        assert executor.started
        executor.close()


class TestWorkerDeath:
    """A killed worker is an error in bounded time, and the executor
    (and a session on it) recovers with unchanged results."""

    def test_sigkilled_worker_raises_broken_pool_in_bounded_time(self):
        executor = SharedExecutor(workers=2)
        try:
            kind, value = _map_with_deadline(executor, _die_on_one, range(4))
            assert kind == "raised", value
            assert isinstance(value, BrokenProcessPool)
            assert not executor.started  # the dead pool was dropped
        finally:
            executor.close()

    def test_broken_pool_is_reported_as_a_warning_event(self, caplog):
        from repro.obs import Trace

        executor = SharedExecutor(workers=2)
        try:
            with caplog.at_level(logging.WARNING, logger="repro.engine.executor"):
                with Trace().span("x") as span:
                    kind, _ = _map_with_deadline(executor, _die_on_one, range(4))
            assert kind == "raised"
            (broken,) = [
                attrs for name, _, attrs in span.events
                if name == "executor.pool.broken"
            ]
            assert broken["workers"] == 2
            assert [r.levelno for r in caplog.records] == [logging.WARNING]
        finally:
            executor.close()

    def test_executor_and_session_recover_after_a_break(self):
        spec = ExperimentSpec("fig3.coverage", trials=256, seed=14)
        with Session(workers=1) as one:
            serial = one.run(spec).without_telemetry()
        with Session(workers=2) as session:
            executor = session.executor
            kind, value = _map_with_deadline(executor, _die_on_one, range(4))
            assert kind == "raised" and isinstance(value, BrokenProcessPool)
            # The same executor maps correctly again on a fresh pool ...
            assert _map_with_deadline(executor, _square, range(8)) == (
                "ok", [x * x for x in range(8)]
            )
            # ... and a full parallel run on it matches one worker.
            assert session.run(spec).without_telemetry() == serial

    def test_unclosed_executor_is_reaped_at_interpreter_exit(self):
        script = textwrap.dedent(
            """
            import multiprocessing
            from repro.engine import SharedExecutor

            def square(x):
                return x * x

            executor = SharedExecutor(workers=2)
            assert executor.map(square, range(8)) == [x * x for x in range(8)]
            print(" ".join(str(p.pid) for p in multiprocessing.active_children()))
            # exits without executor.close()
            """
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath(src), env.get("PYTHONPATH")])
        )
        # A run that does not exit within 10 s raises TimeoutExpired.
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=10.0, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        pids = [int(p) for p in proc.stdout.split()]
        assert pids  # the map really ran on worker processes
        assert not [pid for pid in pids if _pid_alive(pid)]
