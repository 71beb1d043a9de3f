"""Service profiling surface: ``/jobs/{id}/profile`` and ``/debug/profile``.

Runs one ``--profile`` service per module (reusing the
:class:`LiveService` harness from ``test_service_http``) plus targeted
cases against an unprofiled service, pinning:

- profiled services attach a profile to every executed job, and it is
  persisted in the job's result mirror under ``meta.telemetry.profile``;
- ``GET /jobs/{id}/profile`` 404s for unknown jobs and on services
  running without ``--profile``;
- ``GET /debug/profile`` samples the live process on demand, validates
  its query parameters, and clamps the duration;
- the ``repro_process_*`` gauges refresh on every ``/metrics`` scrape.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import parse_exposition
from repro.service import ServiceError

from test_service_http import LiveService, spec


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cache")


@pytest.fixture(scope="module")
def live(cache_dir):
    service = LiveService(workers=2, cache_dir=cache_dir, profile=True).start()
    yield service
    service.stop()


@pytest.fixture(scope="module")
def client(live):
    return live.client()


class TestJobProfile:
    def test_executed_job_exposes_profile(self, client):
        job = client.run(spec(1), timeout=60.0)
        profile = client.profile(job["id"])
        assert profile["schema"] == 1
        assert isinstance(profile["stacks"], dict)
        assert profile["process"]["cpu_seconds"] >= 0

    def test_profile_persisted_to_dir(self, client, cache_dir):
        job = client.run(spec(2), timeout=60.0)
        client.profile(job["id"])  # ensure the job settled
        path = cache_dir / "results" / f"{job['hash']}.json"
        assert path.exists()
        persisted = json.loads(path.read_text())
        assert isinstance(persisted["meta"]["telemetry"]["profile"]["stacks"], dict)

    def test_unknown_job_404s(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.profile("j999999")
        assert excinfo.value.status == 404

    def test_non_get_method_405s(self, client):
        import http.client

        connection = http.client.HTTPConnection(
            "127.0.0.1", client.port, timeout=10.0
        )
        try:
            connection.request("DELETE", "/jobs/j000001/profile")
            response = connection.getresponse()
            response.read()
        finally:
            connection.close()
        assert response.status == 405


class TestDebugProfile:
    def test_samples_the_live_process(self, client):
        payload = client.debug_profile(seconds=0.2, hz=300)
        assert payload["seconds"] == 0.2
        assert payload["hz"] == 300.0
        assert payload["samples"] > 10
        assert isinstance(payload["stacks"], dict)
        # the event loop thread shows up — the service kept serving
        assert payload["threads_observed"]

    def test_rejects_bad_parameters(self, client):
        for query in ("seconds=abc", "seconds=-1", "hz=0", "hz=poodle"):
            with pytest.raises(ServiceError) as excinfo:
                client._request("GET", f"/debug/profile?{query}")
            assert excinfo.value.status == 400

    def test_clamps_absurd_durations(self, client, monkeypatch):
        import repro.service.server as server_module

        monkeypatch.setattr(server_module, "_MAX_PROFILE_SECONDS", 0.2)
        payload = client._request("GET", "/debug/profile?seconds=9999&hz=500")
        assert payload["seconds"] == 0.2


class TestProcessGauges:
    def test_metrics_scrape_refreshes_process_gauges(self, client):
        first = parse_exposition(client.metrics())
        assert first["repro_process_cpu_seconds"][()] > 0
        # burn a little CPU via another scrape; the gauge is refreshed
        # per scrape so it must be monotonically non-decreasing
        second = parse_exposition(client.metrics())
        assert (
            second["repro_process_cpu_seconds"][()]
            >= first["repro_process_cpu_seconds"][()]
        )
        if "repro_process_max_rss_bytes" in second:
            assert second["repro_process_max_rss_bytes"][()] > 1_000_000


class TestUnprofiledService:
    def test_profile_404_without_profiling(self):
        service = LiveService(workers=1).start()
        try:
            client = service.client()
            job = client.run(spec(3), timeout=60.0)
            with pytest.raises(ServiceError) as excinfo:
                client.profile(job["id"])
            assert excinfo.value.status == 404
            assert "profil" in excinfo.value.message.lower()
        finally:
            service.stop()
