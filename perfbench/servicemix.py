"""The ``service_mix`` workload: the experiment service under a closed loop.

An in-process ``serve_forever`` listens on port 0 with a temporary
``cache_dir``; two client threads call ``ServiceClient`` in lockstep
rounds (each round starts when both clients hold their previous
result).  A seeded schedule fixes the share of each admission path:

* ``miss`` rounds: both clients submit a fresh spec, so the service
  runs the engine, writes the store, its disk mirror and the engine
  cache's ``.npz`` entry;
* ``store`` rounds: both clients re-submit specs settled earlier;
* ``coalesce`` rounds: both clients submit the *same* fresh spec at one
  barrier, so the second admission finds the first still in flight.

Per block of ten rounds that is 4/4/2, i.e. half the submissions miss,
40% hit the store and 10% coalesce.  The path a submission actually took
is read from the service's ``via`` answer and reported, since a
coalesce can lose its race and become a store hit.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import shutil
import statistics
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from workloads import Op, engine_trials, fingerprint, seed_stream

CLIENTS = 2
#: Round kinds of one schedule block, shuffled per block.
ROUND_BLOCK = ("miss",) * 4 + ("store",) * 4 + ("coalesce",) * 2
#: Small specs: little engine work, so admission, queue, store and cache
#: carry the latency.
SERVICE_TRIALS = 256
SERVICE_ROWS = 64
#: Bound on any one client wait; a stuck job fails the run, not hangs it.
CLIENT_TIMEOUT_S = 60.0


def service_spec(call_seed: int):
    from repro.api import ExperimentSpec

    return ExperimentSpec(
        "fig3.coverage",
        backend="monte_carlo",
        trials=SERVICE_TRIALS,
        seed=call_seed,
        params={"array_rows": SERVICE_ROWS},
    )


class _Harness:
    """One service on a background event loop, plus the client threads."""

    def __init__(self, scratch: Path):
        from repro.obs.metrics import MetricsRegistry
        from repro.service import ExperimentService

        scratch.mkdir(parents=True, exist_ok=True)
        self.cache_dir = Path(tempfile.mkdtemp(prefix="service-", dir=scratch))
        self.service = ExperimentService(
            workers=2,
            engine_workers=1,
            cache_dir=self.cache_dir,
            registry=MetricsRegistry(),
        )
        self.submitted: set = set()
        self._ready = threading.Event()
        self._error: "BaseException | None" = None
        self._loop = None
        self._stop = None
        self.port = None
        # A daemon, so a benchmark that dies mid-run cannot hang on it.
        self._thread = threading.Thread(target=self._serve, name="service-loop", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError(f"service did not start: {self._error!r}")
        self.clients = ThreadPoolExecutor(max_workers=CLIENTS)

    def _serve(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # reported by __init__ or close
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        from repro.service import serve_forever

        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()

        def ready(server) -> None:
            self.port = server.port
            self._ready.set()

        await serve_forever(self.service, port=0, on_ready=ready, shutdown=self._stop)

    def close(self) -> None:
        self.clients.shutdown(wait=True)
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60)
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            self.cache_dir.parent.rmdir()
        if self._thread.is_alive():
            raise RuntimeError("service loop did not stop")

    # ------------------------------------------------------------------
    def submit(self, spec, barrier: threading.Barrier) -> Op:
        from repro.api import Result
        from repro.service import ServiceClient

        client = ServiceClient(port=self.port, timeout=CLIENT_TIMEOUT_S)
        self.submitted.add(spec.content_hash())
        barrier.wait(timeout=CLIENT_TIMEOUT_S)
        started = time.perf_counter()
        try:
            submitted = client.submit(spec)
            job = submitted["job"]
            if job["state"] == "done":
                payload = client.job(job["id"])
            else:
                payload = client.wait(job["id"], timeout=CLIENT_TIMEOUT_S)
            latency = time.perf_counter() - started
            result = Result.from_json(json.dumps(payload["result"]))
        except Exception as exc:  # counted as a failed operation
            return Op(time.perf_counter() - started, 0, None, path="error",
                      error=repr(exc), detail={"spec": spec})
        via = submitted["via"]
        return Op(
            latency,
            engine_trials(result) if via == "queued" else 0,
            fingerprint(result),
            path=via,
            detail={"spec": spec, "job": job["id"]},
        )

    def round(self, specs) -> "list[Op]":
        barrier = threading.Barrier(len(specs))
        futures = [self.clients.submit(self.submit, spec, barrier) for spec in specs]
        return [future.result() for future in futures]


class ServiceMix:
    name = "service_mix"
    units_per_block = len(ROUND_BLOCK)

    def __init__(self, scratch: Path):
        self.scratch = scratch

    def units(self, seed: int):
        """Rounds of ``CLIENTS`` specs; a pure function of ``seed``."""
        rng = np.random.default_rng([seed, 1])
        fresh = seed_stream(seed)
        settled: list = []
        while True:
            for kind in rng.permutation(ROUND_BLOCK):
                if kind == "store" and settled:
                    picks = rng.integers(len(settled), size=CLIENTS)
                    yield [settled[int(i)] for i in picks]
                elif kind == "coalesce":
                    spec = service_spec(next(fresh))
                    settled.append(spec)
                    yield [spec] * CLIENTS
                else:
                    specs = [service_spec(next(fresh)) for _ in range(CLIENTS)]
                    settled.extend(specs)
                    yield specs

    # ------------------------------------------------------------------
    def open(self) -> _Harness:
        harness = _Harness(self.scratch)
        try:
            # Seed 0 is never drawn: the warm-up builds the decoder LUTs.
            harness.round([service_spec(0)])
        except BaseException:
            harness.close()
            raise
        return harness

    def reopen(self, harness: _Harness) -> _Harness:
        """A fresh service, so a replayed schedule takes the same paths."""
        self.close(harness)
        return self.open()

    def close(self, harness: _Harness) -> None:
        harness.close()

    def run_unit(self, harness: _Harness, unit) -> "list[Op]":
        return harness.round(unit)

    # ------------------------------------------------------------------
    def verify(self, harness: _Harness, units, ops: "list[Op]", seed: int) -> "list[str]":
        """Every served result equals an in-process ``Session.run``, and
        the service ran the engine exactly once per distinct spec (both
        readable after the service stopped)."""
        from repro.api import Session

        failures = []
        runs = harness.service.session.runs_completed
        if runs != len(harness.submitted):
            failures.append(
                f"service_mix: {runs} engine runs for {len(harness.submitted)} distinct specs"
            )
        references: dict = {}
        with Session(workers=1) as session:
            for op in ops:
                if op.fingerprint is None:
                    continue
                spec = op.detail["spec"]
                key = spec.content_hash()
                if key not in references:
                    references[key] = fingerprint(session.run(spec))
                if references[key] != op.fingerprint:
                    failures.append(f"service_mix: served result differs for {key[:12]}")
        return failures


# ----------------------------------------------------------------------
# per-layer figures of one (traced) pass
# ----------------------------------------------------------------------

LAYER_METRICS = (
    "service.admit_ms",
    "service.queue_wait_ms",
    "service.execute_ms",
    "service.store_put_ms",
    "service.store_get_ms",
    "service.http_ms",
    "service.unattributed_ms",
    "service.unique_specs",
    "service.engine_runs",
    "service.store_hit_ratio",
    "service.coalesced_ratio",
    "service.retries",
    "service.jobs_failed",
)


def _median_ms(values) -> float:
    values = list(values)
    return statistics.median(values) * 1000.0 if values else 0.0


def layer_metrics(harness: _Harness, ops: "list[Op]", recorder) -> dict:
    """Service layers, from spans plus the jobs' own timestamps.

    For a miss, ``http`` is the client latency minus the job latency the
    service observes (admission to terminal state), and the remainder of
    that job latency after queue wait, execution and store write is
    ``unattributed``.
    """
    service = harness.service
    totals = recorder.totals()
    executed = dict(recorder.samples["service.execute"])
    puts = dict(recorder.samples["store.put"])
    http, queue_wait, unattributed = [], [], []
    for op in ops:
        if op.path != "queued":
            continue
        job = service.job(op.detail["job"])
        job_latency = job.finished - job.created
        wait = job.started - job.created
        http.append(op.latency_s - job_latency)
        queue_wait.append(wait)
        unattributed.append(
            job_latency - wait - executed.get(job.id, 0.0) - puts.get(job.hash, 0.0)
        )
    n = len(ops) or 1
    ins = service.instruments
    return {
        "service.admit_ms": _median_ms(totals.durations("service.admit")),
        "service.queue_wait_ms": _median_ms(queue_wait),
        "service.execute_ms": _median_ms(executed.values()),
        "service.store_put_ms": _median_ms(puts.values()),
        "service.store_get_ms": _median_ms(totals.durations("store.get")),
        "service.http_ms": _median_ms(http),
        "service.unattributed_ms": _median_ms(unattributed),
        "service.unique_specs": len(harness.submitted),
        "service.engine_runs": service.session.runs_completed,
        "service.store_hit_ratio": sum(op.path == "store" for op in ops) / n,
        "service.coalesced_ratio": sum(op.path == "coalesced" for op in ops) / n,
        "service.retries": int(ins.job_retries_total.value),
        "service.jobs_failed": int(
            sum(ins.jobs_total.labels(outcome=o).value for o in ("error", "timeout"))
        ),
    }
