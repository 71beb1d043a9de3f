"""SharedExecutor: persistence, explicit start methods, spawn safety.

The executor is pure scheduling: any context, any worker count and any
degree of pool reuse must reproduce the single-worker results bit for
bit.  The spawn tests are the satellite guarantee that nothing on the
worker path relies on fork's inherited state (workers re-import repro
and rebuild decoders from pickled specs).
"""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from repro.api import ExperimentSpec, Session
from repro.engine import (
    EngineSpec,
    SharedExecutor,
    resolve_mp_context,
    run_experiment,
)
from repro.engine.executor import MP_CONTEXT_ENV
from repro.scenarios import ClusteredMbuScenario
from repro.perf import run_performance_grid
from repro.cmp.config import ProtectionConfig, lean_cmp_config
from repro.workloads import get_profile

SPEC = EngineSpec(rows=64, data_bits=64, interleave_degree=4,
                  horizontal_code="EDC8", vertical_groups=32)
MODEL = ClusteredMbuScenario.mostly_single_bit(0.3)


def _square(x):
    return x * x


class TestResolveContext:
    def test_default_is_fork_on_linux_else_platform_default(self, monkeypatch):
        import sys

        monkeypatch.delenv(MP_CONTEXT_ENV, raising=False)
        context = resolve_mp_context()
        if sys.platform.startswith("linux"):
            assert context.get_start_method() == "fork"
        else:
            # Never override the platform's own (safety-motivated) choice.
            expected = multiprocessing.get_context().get_start_method()
            assert context.get_start_method() == expected

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(MP_CONTEXT_ENV, "spawn")
        assert resolve_mp_context().get_start_method() == "spawn"

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
        serial = run_performance_grid(
            cmp_cfg, profile, protections,
            n_cycles=400, n_trials=8, seed=3, block_size=4,
        )
        with SharedExecutor(workers=2, mp_context="spawn") as executor:
            shared = run_performance_grid(
                cmp_cfg, profile, protections,
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

    def test_session_mp_context_passthrough(self):
        with Session(workers=2, mp_context="spawn") as session:
            assert session.executor.start_method == "spawn"

    def test_close_is_idempotent_and_rebuilds_lazily(self):
        session = Session(workers=2)
        first = session.executor
        session.close()
        session.close()
        assert session.executor is not first
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
    """Satellite: atexit reaping + close() idempotent under concurrency."""

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

    def test_atexit_hook_registered_on_start_unregistered_on_close(self, monkeypatch):
        import atexit

        registered = []
        unregistered = []
        monkeypatch.setattr(
            atexit, "register", lambda fn, *a, **k: registered.append(fn)
        )
        monkeypatch.setattr(
            atexit, "unregister", lambda fn: unregistered.append(fn)
        )
        executor = SharedExecutor(workers=2)
        assert registered == []  # nothing registered before a pool exists
        executor.map(_square, range(8))
        assert registered == [executor.close]
        executor.map(_square, range(8))
        assert registered == [executor.close]  # once, not per map
        executor.close()
        assert unregistered == [executor.close]

    def test_inline_map_never_registers_atexit(self, monkeypatch):
        import atexit

        registered = []
        monkeypatch.setattr(
            atexit, "register", lambda fn, *a, **k: registered.append(fn)
        )
        executor = SharedExecutor(workers=1)
        executor.map(_square, range(8))
        assert registered == []  # no pool, nothing to reap
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
