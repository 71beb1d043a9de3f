"""Service profiling surface: job profiles in results, ``/debug/profile``.

Runs one ``--profile`` service per module (reusing the
:class:`LiveService` harness from ``test_service_http``) plus targeted
cases against an unprofiled service, pinning:

- profiled services attach a profile to every executed job's result
  (``meta.telemetry.profile``, served by ``GET /jobs/{id}`` and ``GET
  /results/{hash}`` and persisted in the result mirror), and it samples
  only the worker thread that ran the job;
- ``GET /debug/profile`` samples the live process on demand, validates
  its query parameters, and clamps the duration;
- the ``repro_process_*`` gauges refresh on every ``/metrics`` scrape.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.api import ExperimentSpec
from repro.api.cli import main
from repro.obs import DEFAULT_HZ
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
        # Long enough (~0.3 s) for the 47 Hz sampler to take samples.
        job = client.run(
            ExperimentSpec("fig3.coverage", trials=65536, seed=11), timeout=60.0
        )
        profile = job["result"]["meta"]["telemetry"]["profile"]
        assert isinstance(profile["stacks"], dict)
        assert profile["process"]["cpu_seconds"] >= 0
        assert profile["samples"] > 0
        # Only the worker thread that ran the job: not the event loop,
        # not the other service worker, not the main thread.
        assert len(profile["threads_observed"]) == 1
        stored = client.result(job["hash"])
        assert stored["meta"]["telemetry"]["profile"] == profile

    def test_profile_persisted_to_dir(self, client, cache_dir):
        job = client.run(spec(2), timeout=60.0)
        path = cache_dir / "results" / f"{job['hash']}.json"
        assert path.exists()
        persisted = json.loads(path.read_text())
        assert isinstance(persisted["meta"]["telemetry"]["profile"]["stacks"], dict)
        # The mirror is an explain source: the page draws its flamegraph.
        out = cache_dir / "mirror.html"
        assert main(["explain", str(path), "-o", str(out)]) == 0
        assert "<h2>Flamegraph</h2>" in out.read_text()


class TestDebugProfile:
    def test_samples_the_live_process(self, client, tmp_path):
        payload = client.debug_profile(seconds=0.5)
        assert payload["seconds"] == 0.5
        assert payload["hz"] == DEFAULT_HZ
        assert payload["samples"] > 10
        assert isinstance(payload["stacks"], dict)
        # the event loop thread shows up — the service kept serving
        assert payload["threads_observed"]
        # The body is an explain source, embedded in its page as-is.
        path = tmp_path / "debug-profile.json"
        path.write_text(json.dumps(payload))
        assert main(["explain", str(path)]) == 0
        match = re.search(
            r'<script type="application/json" id="repro-profile">(.*?)</script>',
            path.with_suffix(".html").read_text(),
            re.S,
        )
        assert json.loads(match.group(1)) == payload

    def test_rejects_bad_parameters(self, client):
        for query in ("seconds=abc", "seconds=-1"):
            with pytest.raises(ServiceError) as excinfo:
                client._request("GET", f"/debug/profile?{query}")
            assert excinfo.value.status == 400

    def test_non_finite_seconds_is_a_400_not_a_hang(self, live):
        # NaN passes a plain `< 0` check and the `min()` clamp; the
        # request must be refused, not sample until shutdown.
        client = live.client(timeout=5.0)
        for value in ("nan", "inf", "-inf"):
            with pytest.raises(ServiceError) as excinfo:
                client._request("GET", f"/debug/profile?seconds={value}")
            assert excinfo.value.status == 400

    def test_clamps_absurd_durations(self, client, monkeypatch):
        import repro.service.server as server_module

        monkeypatch.setattr(server_module, "_MAX_PROFILE_SECONDS", 0.2)
        payload = client._request("GET", "/debug/profile?seconds=9999")
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
    def test_no_profile_without_profiling(self):
        service = LiveService(workers=1).start()
        try:
            client = service.client()
            job = client.run(spec(3), timeout=60.0)
            assert "profile" not in job["result"]["meta"]["telemetry"]
        finally:
            service.stop()
