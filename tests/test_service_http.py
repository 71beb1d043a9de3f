"""HTTP API + client against a live in-process service.

Each ``LiveService`` runs :func:`repro.service.serve_forever` on a
background thread with its own event loop and an ephemeral port; tests
drive it through :class:`ServiceClient` (and raw sockets for the
malformed-request paths).  The module ends with the acceptance soak
test: ≥1000 submissions of ~50 unique specs against a running service.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import re
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro
from repro.api import ExperimentSpec
from repro.api.result import Result
from repro.obs.metrics import MetricsRegistry, parse_exposition
from repro.service import (
    ExperimentService,
    JobFailedError,
    ServiceClient,
    ServiceError,
    serve_forever,
)


def spec(i: int = 0) -> ExperimentSpec:
    return ExperimentSpec("fig8.reliability", params={"years": [float(i)]})


class LiveService:
    """serve_forever on a daemon thread; stop via the shutdown event."""

    def __init__(self, expose_metrics: bool = True, **service_kwargs):
        self._expose_metrics = expose_metrics
        self._kwargs = service_kwargs
        self._ready = threading.Event()
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._stop: "asyncio.Event | None" = None
        self.port: "int | None" = None
        self.service: "ExperimentService | None" = None
        self._thread = threading.Thread(target=self._main, daemon=True)

    def _main(self) -> None:
        asyncio.run(self._serve())

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.service = ExperimentService(**self._kwargs)

        def on_ready(server):
            self.port = server.port
            self._ready.set()

        try:
            await serve_forever(
                self.service,
                host="127.0.0.1",
                port=0,
                expose_metrics=self._expose_metrics,
                on_ready=on_ready,
                shutdown=self._stop,
            )
        finally:
            self._ready.set()  # unblock start() even on bind failure

    def start(self) -> "LiveService":
        self._thread.start()
        assert self._ready.wait(timeout=15.0), "service never came up"
        assert self.port is not None, "service failed to bind"
        return self

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30.0)
        assert not self._thread.is_alive(), "service did not shut down"

    def client(self, **kwargs) -> ServiceClient:
        return ServiceClient(port=self.port, **kwargs)


class GatedSession:
    """Stub session whose runs block until the gate opens."""

    def __init__(self):
        self.gate = threading.Event()
        self.cache = None
        self.workers = 1
        self.runs_started = 0
        self.runs_completed = 0

    def run(self, job_spec):
        self.runs_started += 1
        assert self.gate.wait(timeout=15.0)
        from repro.api.result import Series

        result = Result(
            experiment=job_spec.experiment,
            backend="analytical",
            spec=job_spec,
            data={"p": [0.5]},
            series=(Series("p", y=(0.5,), x=(0.0,)),),
        )
        self.runs_completed += 1
        return result

    def close(self) -> None:
        pass


@pytest.fixture(scope="module")
def live():
    service = LiveService(workers=2).start()
    yield service
    service.stop()


@pytest.fixture(scope="module")
def client(live):
    return live.client()


class TestHealthAndStats:
    def test_healthz(self, client):
        payload = client.wait_ready()
        assert payload["status"] == "ok"
        assert payload["workers"] == 2

    def test_healthz_reports_version_schema_and_runs(self, client):
        payload = client.healthz()
        assert payload["version"] == repro.__version__
        assert payload["schema_version"] >= 1
        assert isinstance(payload["runs_completed"], int)

    def test_stats_shape(self, client):
        stats = client.stats()
        assert {"queue", "jobs", "store", "session"} <= stats.keys()
        assert "dedup" not in stats
        assert "depth" in stats["queue"]
        assert "hit_rate" in stats["store"]


class TestJobsApi:
    def test_submit_wait_and_fetch_result(self, client):
        submitted = client.submit(spec(1))
        assert submitted["via"] in ("queued", "coalesced")
        job = client.wait(submitted["job"]["id"], timeout=60.0)
        assert job["state"] == "done"
        assert job["result"]["experiment"] == "fig8.reliability"
        # The stored result round-trips through the typed API.
        fetched = client.result(job["hash"])
        result = Result.from_json(json.dumps(fetched))
        assert result.spec_hash == job["hash"]

    def test_resubmission_is_served_from_store(self, client):
        client.run(spec(2), timeout=60.0)
        again = client.submit(spec(2))
        assert again["via"] == "store"
        assert again["job"]["state"] == "done"
        assert again["job"]["from_store"] is True

    def test_submit_by_name_with_overrides(self, client):
        job = client.run(
            "fig3.coverage", timeout=60.0, trials=256, seed=7
        )
        assert job["state"] == "done"

    def test_long_poll_returns_terminal_payload(self, client):
        submitted = client.submit(spec(3))
        job = client.job(submitted["job"]["id"], wait=30.0)
        assert job["state"] == "done"

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.job("j999999")
        assert excinfo.value.status == 404

    def test_unknown_result_hash_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.result("0" * 16)
        assert excinfo.value.status == 404

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_wrong_method_is_405(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/jobs/j000001", {})
        assert excinfo.value.status == 405


class TestBadRequests:
    def test_unknown_experiment_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit("no.such_figure")
        assert excinfo.value.status == 400

    def test_missing_spec_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/jobs", {"priority": 1})
        assert excinfo.value.status == 400

    def test_bad_priority_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request(
                "POST",
                "/jobs",
                {"spec": {"experiment": "fig1.storage"}, "priority": "high"},
            )
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("timeout", [-1, 0, float("nan"), True, "5"])
    def test_timeout_that_is_not_valid_is_400(self, client, timeout):
        before = client.stats()["queue"]["submitted"]
        with pytest.raises(ServiceError) as excinfo:
            client._request(
                "POST",
                "/jobs",
                {"spec": {"experiment": "fig1.storage"}, "timeout": timeout},
            )
        assert excinfo.value.status == 400
        assert "timeout" in str(excinfo.value)
        assert client.stats()["queue"]["submitted"] == before

    def test_non_json_body_is_400(self, live):
        with socket.create_connection(("127.0.0.1", live.port), timeout=5.0) as s:
            s.sendall(
                b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 9\r\n\r\nnot json!"
            )
            response = s.recv(65536).decode()
        assert response.startswith("HTTP/1.1 400")

    def test_oversized_body_is_413(self, live):
        with socket.create_connection(("127.0.0.1", live.port), timeout=5.0) as s:
            s.sendall(
                b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 9999999\r\n\r\n"
            )
            response = s.recv(65536).decode()
        assert response.startswith("HTTP/1.1 413")


class TestCancelAndBackpressure:
    """Gated stub session: jobs stay RUNNING until the test says so."""

    def test_delete_cancel_and_queue_full(self):
        session = GatedSession()
        live = LiveService(
            session=session, workers=1, queue_capacity=2
        ).start()
        try:
            client = live.client()
            client.wait_ready()
            running = client.submit(spec(0))["job"]
            # Wait for the single worker to claim it.
            deadline = 50
            while client.job(running["id"])["state"] != "running":
                deadline -= 1
                assert deadline, "worker never claimed the job"

            queued = client.submit(spec(1))["job"]
            client.submit(spec(2))
            with pytest.raises(ServiceError) as excinfo:
                client.submit(spec(3))  # 1 running + 2 queued = full
            assert excinfo.value.status == 429

            cancelled = client.cancel(queued["id"])
            assert cancelled["cancelled"] is True
            assert cancelled["job"]["state"] == "cancelled"
            with pytest.raises(ServiceError) as excinfo:
                client.cancel(running["id"])  # running: only a request
            assert excinfo.value.status == 409

            session.gate.set()
            with pytest.raises(JobFailedError):
                # The running job had a cancel request: outcome discarded.
                client.wait(running["id"], timeout=30.0)
            assert client.job(running["id"])["state"] == "cancelled"
        finally:
            session.gate.set()
            live.stop()

    def test_non_finite_wait_is_a_400_not_a_hang(self):
        # min(nan, cap) is NaN: the long-poll cap must not be bypassed
        # while the job is still running.
        session = GatedSession()
        live = LiveService(session=session, workers=1).start()
        try:
            client = live.client(timeout=5.0)
            client.wait_ready()
            running = client.submit(spec(0))["job"]
            for value in ("nan", "inf", "-inf"):
                with pytest.raises(ServiceError) as excinfo:
                    client._request("GET", f"/jobs/{running['id']}?wait={value}")
                assert excinfo.value.status == 400
            assert client.job(running["id"])["state"] in ("queued", "running")
        finally:
            session.gate.set()
            live.stop()


class TestMetricsAndTrace:
    """GET /metrics exposition and the per-job trace surface."""

    def test_metrics_endpoint_content_type_and_parses(self, live, client):
        client.run(spec(10), timeout=60.0)
        connection = http.client.HTTPConnection("127.0.0.1", live.port, timeout=10.0)
        try:
            connection.request("GET", "/metrics")
            response = connection.getresponse()
            body = response.read().decode("utf-8")
        finally:
            connection.close()
        assert response.status == 200
        assert response.getheader("Content-Type") == (
            "text/plain; version=0.0.4; charset=utf-8"
        )
        parsed = parse_exposition(body)
        assert parsed["repro_jobs_total"][(("outcome", "ok"),)] >= 1
        # Other tests' services share the process-global registry, so
        # only the fresh-registry soak asserts exact values.
        assert parsed["repro_workers_total"][()] >= 1
        assert "repro_queue_wait_seconds_count" in parsed

    def test_job_payload_carries_trace_id(self, client):
        job = client.run(spec(11), timeout=60.0)
        assert len(job["trace_id"]) == 32

    def test_trace_endpoint_returns_full_span_tree(self, client):
        job = client.run(spec(12), timeout=60.0)
        export = client.trace(job["id"])
        trace = export["trace"]
        assert trace["trace_id"] == job["trace_id"]
        names = [s["name"] for s in trace["spans"]]
        for expected in (
            "admit", "queue.wait", "worker.run", "engine.execute", "store.write",
        ):
            assert expected in names, names
        # Chrome viewers load the same payload via traceEvents.
        assert all("ph" in e for e in export["traceEvents"])
        # And the run's result telemetry points back at the same trace.
        telemetry = job["result"]["meta"]["telemetry"]
        assert telemetry["trace_id"] == job["trace_id"]

    def test_store_hit_submission_gets_its_own_trace(self, client):
        client.run(spec(13), timeout=60.0)
        again = client.submit(spec(13))
        assert again["via"] == "store"
        export = client.trace(again["job"]["id"])
        assert [s["name"] for s in export["trace"]["spans"]] == ["admit"]

    def test_trace_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.trace("j999999")
        assert excinfo.value.status == 404

    def test_trace_wrong_method_is_405(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/jobs/j000001/trace", {})
        assert excinfo.value.status == 405

    def test_trace_dir_persists_renderable_chrome_loadable_traces(
        self, tmp_path
    ):
        from repro.viz import load_source, render_page

        live = LiveService(workers=1, cache_dir=tmp_path).start()
        try:
            client = live.client()
            client.wait_ready()
            job = client.run(spec(14), timeout=60.0)
            path = tmp_path / "traces" / f"{job['id']}.json"
            deadline = time.monotonic() + 10.0
            while not path.is_file() and time.monotonic() < deadline:
                time.sleep(0.05)  # persisted just after terminal state
            source = load_source(path)
            assert source.kind == "trace"
            assert source.trace["trace_id"] == job["trace_id"]
            # Chrome/Perfetto shape: a top-level traceEvents array of
            # phased events.
            raw = json.loads(path.read_text())
            assert all("ph" in e for e in raw["traceEvents"])
            # And it renders to the self-contained explain page, which
            # embeds the file as-is (traceEvents included).
            html_text = render_page(source)
            match = re.search(
                r'<script type="application/json" id="repro-trace">(.*?)</script>',
                html_text,
                re.S,
            )
            assert json.loads(match.group(1)) == raw
            assert "engine.execute" in html_text
        finally:
            live.stop()

    def test_metrics_can_be_disabled(self):
        live = LiveService(expose_metrics=False, workers=1).start()
        try:
            client = live.client()
            client.wait_ready()  # the rest of the API is unaffected
            with pytest.raises(ServiceError) as excinfo:
                client.metrics()
            assert excinfo.value.status == 404
        finally:
            live.stop()


class TestSoak:
    """ISSUE acceptance: ≥1000 submissions, ~50 unique, one run each."""

    UNIQUE = 50
    TOTAL = 1000
    THREADS = 16

    @staticmethod
    def _await_sample(client, name, labels, expected):
        """Scrape until the sample reaches ``expected`` (or ~10s): job
        terminal-state visibility slightly precedes the worker's final
        metric increments, so an immediate scrape can be one short."""
        labels = tuple(sorted(labels))
        deadline = time.monotonic() + 10.0
        while True:
            value = parse_exposition(client.metrics()).get(name, {}).get(
                labels, 0.0
            )
            if value == expected or time.monotonic() >= deadline:
                return value
            time.sleep(0.05)

    def test_soak_dedup_and_store(self):
        registry = MetricsRegistry()  # fresh: exact counts, no bleed-over
        live = LiveService(workers=4, registry=registry).start()
        try:
            client = live.client()
            client.wait_ready()
            specs = [spec(i % self.UNIQUE) for i in range(self.TOTAL)]
            hashes = {s.content_hash() for s in specs}
            assert len(hashes) == self.UNIQUE

            with ThreadPoolExecutor(max_workers=self.THREADS) as pool:
                submissions = list(pool.map(client.submit, specs))

            # Mid-soak (jobs still running): the exposition stays valid.
            mid = parse_exposition(client.metrics())
            assert "repro_queue_depth" in mid
            assert sum(mid["repro_service_submissions_total"].values()) == (
                self.TOTAL
            )

            # Every submission was admitted on one of the three paths.
            assert len(submissions) == self.TOTAL
            vias = [s["via"] for s in submissions]
            assert all(v in ("queued", "coalesced", "store") for v in vias)
            # Single-flight: each unique spec was queued exactly once.
            assert vias.count("queued") == self.UNIQUE

            # Drain: wait out every queued job.
            queued_ids = [
                s["job"]["id"] for s in submissions if s["via"] == "queued"
            ]
            with ThreadPoolExecutor(max_workers=self.THREADS) as pool:
                finals = list(
                    pool.map(lambda i: client.wait(i, timeout=120.0), queued_ids)
                )
            assert all(job["state"] == "done" for job in finals)

            stats = client.stats()
            # Unique engine runs == unique content hashes.
            assert stats["session"]["runs_started"] == self.UNIQUE
            assert stats["session"]["runs_completed"] == self.UNIQUE
            # The other 950 submissions coalesced or hit the store.
            duplicates = self.TOTAL - self.UNIQUE
            assert (
                stats["queue"]["coalesced"] + stats["store"]["hits"]
                == duplicates
            )
            assert stats["queue"]["depth"] == 0
            assert stats["store"]["hit_rate"] is not None

            # The scraped metrics tell the same story, exactly: 50
            # engine runs, 950 deduplicated submissions, every executed
            # job observed end to end.
            assert self._await_sample(
                client, "repro_engine_runs_total", (), self.UNIQUE
            ) == self.UNIQUE
            assert self._await_sample(
                client, "repro_jobs_total", (("outcome", "ok"),), self.UNIQUE
            ) == self.UNIQUE
            parsed = parse_exposition(client.metrics())
            assert parsed["repro_jobs_total"][(("outcome", "deduped"),)] == (
                duplicates
            )
            vias_scraped = parsed["repro_service_submissions_total"]
            assert vias_scraped[(("via", "queued"),)] == self.UNIQUE
            assert (
                vias_scraped.get((("via", "coalesced"),), 0.0)
                + vias_scraped.get((("via", "store"),), 0.0)
                == duplicates
            )
            # Latency + queue-wait histograms saw all 50 executed jobs.
            assert parsed["repro_job_latency_seconds_count"][
                (("experiment", "fig8.reliability"),)
            ] == self.UNIQUE
            assert parsed["repro_queue_wait_seconds_count"][()] == self.UNIQUE
            assert parsed["repro_queue_wait_seconds_bucket"][
                (("le", "+Inf"),)
            ] == self.UNIQUE
            assert parsed["repro_workers_busy"][()] == 0
            assert parsed["repro_queue_depth"][()] == 0

            # Resubmission after completion is served from the store,
            # without a new engine run.
            resubmitted = [client.submit(s) for s in specs[: self.UNIQUE]]
            assert all(r["via"] == "store" for r in resubmitted)
            assert (
                client.stats()["session"]["runs_started"] == self.UNIQUE
            )

            # Every unique result is fetchable and well-formed.
            for spec_hash in sorted(hashes)[:5]:
                payload = client.result(spec_hash)
                result = Result.from_json(json.dumps(payload))
                assert result.spec_hash == spec_hash
        finally:
            live.stop()
