"""Thin blocking client for the experiment service (stdlib only).

Built on :mod:`http.client`; one connection per request (the server
closes connections after each response), so a client instance is cheap,
stateless and safe to share across threads.  Used by the test suite,
the CI smoke step, and anyone driving a service from scripts::

    from repro.api import ExperimentSpec
    from repro.service import ServiceClient

    client = ServiceClient(port=8765)
    submitted = client.submit(
        ExperimentSpec("fig3.coverage", trials=4096, seed=2007)
    )
    job = client.wait(submitted["job"]["id"])
    result = client.result(job["hash"])          # full Result JSON
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Mapping

from repro.api.spec import ExperimentSpec

__all__ = ["ServiceClient", "ServiceError", "JobFailedError"]


class ServiceError(RuntimeError):
    """Non-2xx response from the service."""

    def __init__(self, status: int, message: str, payload: "dict | None" = None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        self.payload = payload or {}


class JobFailedError(ServiceError):
    """A waited-on job settled in a non-``done`` terminal state."""

    def __init__(self, job: dict):
        super().__init__(
            200,
            f"job {job.get('id')} ended {job.get('state')}: {job.get('error')}",
            job,
        )
        self.job = job


class ServiceClient:
    """Blocking JSON client for one service endpoint."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        *,
        timeout: float = 30.0,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout

    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        body: "Mapping | None" = None,
        *,
        timeout: "float | None" = None,
    ) -> dict:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=timeout or self.timeout
        )
        try:
            payload = json.dumps(body).encode("utf-8") if body is not None else None
            headers = {"Content-Type": "application/json"} if payload else {}
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            text = response.read().decode("utf-8")
        finally:
            connection.close()
        try:
            data = json.loads(text) if text else {}
        except json.JSONDecodeError:
            data = {"error": text}
        if response.status >= 400:
            raise ServiceError(
                response.status, data.get("error", text), data
            )
        return data

    # ------------------------------------------------------------------
    def submit(
        self,
        spec: "ExperimentSpec | Mapping | str",
        *,
        priority: int = 0,
        timeout: "float | None" = None,
        **overrides: Any,
    ) -> dict:
        """``POST /jobs``; returns ``{"via": ..., "job": {...}}``.

        ``spec`` may be an :class:`ExperimentSpec`, a ``to_key()``-style
        mapping, or just an experiment name (with spec fields as
        keyword overrides, e.g. ``submit("fig3.coverage",
        trials=4096, seed=2007)``).
        """
        if isinstance(spec, str):
            spec = ExperimentSpec(spec, **overrides)
        elif overrides:
            raise TypeError("spec overrides only apply to name submissions")
        key = spec.to_key() if isinstance(spec, ExperimentSpec) else dict(spec)
        body: "dict[str, Any]" = {"spec": key, "priority": priority}
        if timeout is not None:
            body["timeout"] = timeout
        return self._request("POST", "/jobs", body)

    def job(self, job_id: str, *, wait: "float | None" = None) -> dict:
        """``GET /jobs/{id}`` (``wait`` long-polls server-side)."""
        path = f"/jobs/{job_id}"
        if wait is not None:
            path += f"?wait={wait}"
            return self._request(
                "GET", path, timeout=max(self.timeout, wait + 10.0)
            )
        return self._request("GET", path)

    def wait(
        self,
        job_id: str,
        *,
        timeout: float = 120.0,
        poll: float = 5.0,
        raise_on_failure: bool = True,
    ) -> dict:
        """Block until the job settles; returns its final payload.

        Uses server-side long-polling in ``poll``-second slices up to
        ``timeout`` total.  A job that settles anywhere other than
        ``done`` raises :class:`JobFailedError` (unless disabled).
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"job {job_id} still not terminal after {timeout}s"
                )
            payload = self.job(job_id, wait=min(poll, remaining))
            if payload.get("finished") is not None or payload.get("state") in (
                "done",
                "failed",
                "timeout",
                "cancelled",
            ):
                if raise_on_failure and payload.get("state") != "done":
                    raise JobFailedError(payload)
                return payload

    def run(
        self,
        spec: "ExperimentSpec | Mapping | str",
        *,
        priority: int = 0,
        timeout: float = 120.0,
        **overrides: Any,
    ) -> dict:
        """Submit and wait; returns the completed job payload (with the
        result inlined) — the one-call blocking convenience."""
        submitted = self.submit(spec, priority=priority, **overrides)
        job = submitted["job"]
        if job.get("state") == "done":
            return self.job(job["id"])  # store hit: fetch result inline
        return self.wait(job["id"], timeout=timeout)

    def result(self, spec_or_hash: "ExperimentSpec | str") -> dict:
        """``GET /results/{hash}``: the stored Result JSON payload."""
        spec_hash = (
            spec_or_hash.content_hash()
            if isinstance(spec_or_hash, ExperimentSpec)
            else spec_or_hash
        )
        return self._request("GET", f"/results/{spec_hash}")

    def cancel(self, job_id: str) -> dict:
        """``DELETE /jobs/{id}`` (409 raises :class:`ServiceError`)."""
        return self._request("DELETE", f"/jobs/{job_id}")

    def trace(self, job_id: str) -> dict:
        """``GET /jobs/{id}/trace``: the job's trace export (span JSON
        plus a Chrome ``traceEvents`` array)."""
        return self._request("GET", f"/jobs/{job_id}/trace")

    def debug_profile(self, *, seconds: float = 1.0) -> dict:
        """``GET /debug/profile``: sample the service process for
        ``seconds`` and return the collapsed-stack profile."""
        return self._request(
            "GET",
            f"/debug/profile?seconds={seconds}",
            timeout=max(self.timeout, seconds + 10.0),
        )

    def metrics(self) -> str:
        """``GET /metrics``: the raw Prometheus text exposition (parse
        with :func:`repro.obs.metrics.parse_exposition`)."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            connection.request("GET", "/metrics")
            response = connection.getresponse()
            text = response.read().decode("utf-8")
        finally:
            connection.close()
        if response.status >= 400:
            raise ServiceError(response.status, text)
        return text

    def stats(self) -> dict:
        return self._request("GET", "/stats")

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def wait_ready(self, *, timeout: float = 10.0, poll: float = 0.1) -> dict:
        """Poll ``/healthz`` until the service answers (startup races)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.healthz()
            except (OSError, ServiceError):
                if time.monotonic() >= deadline:
                    raise
                time.sleep(poll)
