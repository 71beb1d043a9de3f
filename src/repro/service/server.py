"""HTTP+JSON front end over asyncio streams (stdlib only).

A deliberately small HTTP/1.1 server — request line, headers,
``Content-Length`` body, JSON in, JSON out, ``Connection: close`` — on
:func:`asyncio.start_server`.  No routing framework, no threads: every
handler is a plain coroutine against the
:class:`~repro.service.app.ExperimentService` control plane.

Routes
------
``POST /jobs``
    Body ``{"spec": {...}, "priority": 0, "timeout": null}`` where
    ``spec`` is an :meth:`ExperimentSpec.to_key` mapping (flat
    ``{"experiment": ...}`` bodies are accepted too).  Responses:
    ``201`` new job queued, ``200`` coalesced onto an in-flight job or
    served from the store (``via`` says which), ``400`` malformed
    spec/unknown experiment or a ``timeout`` that is not a finite
    number of seconds > 0, ``429`` queue full.
``GET /jobs/{id}``
    Job status (result inlined once done).  ``?wait=SECONDS`` long-polls
    until the job settles or the wait elapses (capped at 60s).
``DELETE /jobs/{id}``
    Cancel: ``200`` cancelled while queued, ``409`` already
    running/terminal (a running job gets a discard-on-finish request),
    ``404`` unknown.
``GET /results/{hash}``
    The completed :class:`Result` JSON for a spec content hash straight
    from the store (``404`` on miss/expired).
``GET /healthz`` / ``GET /stats``
    Liveness and the service's counters digest.
``GET /metrics``
    The service's metrics registry in Prometheus text exposition format
    (the one non-JSON route; disabled with ``expose_metrics=False`` /
    ``serve --no-metrics``).
``GET /jobs/{id}/trace``
    The job's trace export: span JSON plus a Chrome ``traceEvents``
    array in one payload.
``GET /debug/profile?seconds=N``
    On-demand whole-process sampling: run the sampling profiler over
    every thread for ``seconds`` (default 1, capped at 30; ``400``
    unless a finite number >= 0) and return the profile.  The sampler
    runs on its own thread, so the event loop keeps serving while it
    collects.  A ``--profile`` job's own profile rides in its result
    (``meta.telemetry.profile`` of ``GET /jobs/{id}`` and ``GET
    /results/{hash}``).
"""

from __future__ import annotations

import asyncio
import json
import logging
import math
from urllib.parse import parse_qs, urlsplit

from repro.api.registry import UnknownExperimentError
from repro.api.spec import ExperimentSpec, SpecError

from .app import ExperimentService
from .queue import QueueClosedError, QueueFullError

__all__ = ["ServiceServer"]

_log = logging.getLogger(__name__)

_MAX_BODY = 1 << 20  # 1 MiB: specs are small; refuse anything bigger
_MAX_WAIT = 60.0  # long-poll cap per request
_MAX_PROFILE_SECONDS = 30.0  # /debug/profile duration cap per request

#: Prometheus text exposition format version 0.0.4.
_METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ServiceServer:
    """Bind an :class:`ExperimentService` to a host/port."""

    def __init__(
        self,
        service: ExperimentService,
        host: str = "127.0.0.1",
        port: int = 8765,
        *,
        expose_metrics: bool = True,
    ):
        self.service = service
        self.host = host
        self.port = port
        self.expose_metrics = expose_metrics
        self._server: "asyncio.base_events.Server | None" = None

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start listening (``port=0`` picks a free port, readable back
        from :attr:`port` afterwards)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        _log.info("service listening on %s:%d", self.host, self.port)

    async def stop(self) -> None:
        """Stop accepting connections (in-flight handlers finish)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def serving(self) -> bool:
        return self._server is not None

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        content_type = "application/json"
        try:
            response = await self._handle_request(reader)
            # Handlers return (status, payload) or, for the one
            # non-JSON route, (status, payload, content_type).
            if len(response) == 3:
                status, payload, content_type = response
            else:
                status, payload = response
        except _HttpError as exc:
            status, payload = exc.status, {"error": exc.message}
        except Exception as exc:  # a handler bug must not kill the server
            _log.exception("unhandled service error")
            status, payload = 500, {"error": repr(exc)}
        try:
            body = (
                payload
                if isinstance(payload, (bytes, bytearray))
                else json.dumps(payload).encode("utf-8")
            )
            writer.write(
                (
                    f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                    f"Content-Type: {content_type}\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode("ascii")
                + body
            )
            await writer.drain()
        except (ConnectionError, OSError):
            pass  # client went away mid-response
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_request(
        self, reader: asyncio.StreamReader
    ) -> "tuple[int, object]":
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=30.0
            )
        except (asyncio.IncompleteReadError, asyncio.TimeoutError) as exc:
            raise _HttpError(400, "malformed or incomplete request") from exc
        except asyncio.LimitOverrunError as exc:
            raise _HttpError(413, "request head too large") from exc
        request_line, _, header_block = head.partition(b"\r\n")
        try:
            method, target, _ = request_line.decode("ascii").split(" ", 2)
        except (UnicodeDecodeError, ValueError) as exc:
            raise _HttpError(400, "malformed request line") from exc
        headers = {}
        for line in header_block.decode("latin-1").split("\r\n"):
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        body = b""
        if method == "POST":
            try:
                length = int(headers.get("content-length", "0"))
            except ValueError as exc:
                raise _HttpError(400, "bad Content-Length") from exc
            if length > _MAX_BODY:
                raise _HttpError(413, f"body exceeds {_MAX_BODY} bytes")
            if length:
                try:
                    body = await asyncio.wait_for(
                        reader.readexactly(length), timeout=30.0
                    )
                except (asyncio.IncompleteReadError, asyncio.TimeoutError) as exc:
                    raise _HttpError(400, "truncated request body") from exc
        url = urlsplit(target)
        query = {k: v[-1] for k, v in parse_qs(url.query).items()}
        return await self._route(method, url.path.rstrip("/") or "/", query, body)

    # ------------------------------------------------------------------
    async def _route(
        self, method: str, path: str, query: dict, body: bytes
    ) -> "tuple[int, object]":
        if path == "/jobs" and method == "POST":
            return self._post_job(body)
        if path.startswith("/jobs/"):
            job_id = path[len("/jobs/"):]
            if job_id.endswith("/trace"):
                if method != "GET":
                    raise _HttpError(405, f"{method} not allowed on {path}")
                return self._get_trace(job_id[: -len("/trace")])
            if method == "GET":
                return await self._get_job(job_id, query)
            if method == "DELETE":
                return self._delete_job(job_id)
            raise _HttpError(405, f"{method} not allowed on {path}")
        if path.startswith("/results/") and method == "GET":
            return self._get_result(path[len("/results/"):])
        if path == "/healthz" and method == "GET":
            return 200, self.service.healthz()
        if path == "/stats" and method == "GET":
            return 200, self.service.stats()
        if path == "/debug/profile" and method == "GET":
            return await self._debug_profile(query)
        if path == "/metrics" and method == "GET":
            if not self.expose_metrics:
                raise _HttpError(404, "metrics exposition is disabled")
            return (
                200,
                self.service.metrics_text().encode("utf-8"),
                _METRICS_CONTENT_TYPE,
            )
        raise _HttpError(404, f"no route for {method} {path}")

    def _post_job(self, body: bytes) -> "tuple[int, object]":
        try:
            payload = json.loads(body or b"{}")
        except json.JSONDecodeError as exc:
            raise _HttpError(400, f"body is not JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise _HttpError(400, "body must be a JSON object")
        raw_spec = payload.get("spec", payload)
        if not isinstance(raw_spec, dict) or "experiment" not in raw_spec:
            raise _HttpError(
                400, 'body needs a "spec" object with an "experiment" name'
            )
        try:
            spec = ExperimentSpec.from_key(raw_spec)
        except (SpecError, KeyError, TypeError) as exc:
            raise _HttpError(400, f"bad spec: {exc}") from exc
        priority = payload.get("priority", 0)
        timeout = payload.get("timeout")
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise _HttpError(400, "priority must be an integer")
        try:
            job, via = self.service.submit(
                spec, priority=priority, timeout=timeout
            )
        except UnknownExperimentError as exc:
            raise _HttpError(400, str(exc)) from exc
        except SpecError as exc:
            raise _HttpError(400, f"bad spec: {exc}") from exc
        except ValueError as exc:  # a timeout that is not valid
            raise _HttpError(400, str(exc)) from exc
        except QueueFullError as exc:
            raise _HttpError(429, str(exc)) from exc
        except QueueClosedError as exc:
            raise _HttpError(503, str(exc)) from exc
        status = 201 if via == "queued" else 200
        return status, {"via": via, "job": job.to_payload(include_result=False)}

    async def _get_job(self, job_id: str, query: dict) -> "tuple[int, object]":
        job = self.service.job(job_id)
        if job is None:
            raise _HttpError(404, f"no job {job_id!r}")
        wait = query.get("wait")
        if wait is not None:
            try:
                seconds = float(wait)
            except ValueError as exc:
                raise _HttpError(400, "wait must be a number of seconds") from exc
            # NaN slips past the min() clamp and would hold the request
            # until the job settles, whatever the long-poll cap.
            if not math.isfinite(seconds):
                raise _HttpError(400, "wait must be a finite number of seconds")
            if not job.done:
                await job.wait(timeout=max(min(seconds, _MAX_WAIT), 0.0))
        return 200, job.to_payload()

    def _delete_job(self, job_id: str) -> "tuple[int, object]":
        verdict = self.service.cancel(job_id)
        if verdict is None:
            raise _HttpError(404, f"no job {job_id!r}")
        job = self.service.job(job_id)
        payload = {"cancelled": verdict, "job": job.to_payload(include_result=False)}
        return (200 if verdict else 409), payload

    def _get_trace(self, job_id: str) -> "tuple[int, object]":
        job = self.service.job(job_id)
        if job is None:
            raise _HttpError(404, f"no job {job_id!r}")
        return 200, job.trace.export()

    async def _debug_profile(self, query: dict) -> "tuple[int, object]":
        from repro.obs.profile import SamplingProfiler

        try:
            seconds = float(query.get("seconds", 1.0))
        except ValueError as exc:
            raise _HttpError(400, "seconds must be a number") from exc
        # NaN slips past both the sign check and the min() clamp, and
        # the sampler would then run until shutdown.
        if not math.isfinite(seconds) or seconds < 0:
            raise _HttpError(400, "seconds must be a finite number >= 0")
        seconds = min(seconds, _MAX_PROFILE_SECONDS)
        profiler = SamplingProfiler()
        profiler.start()
        try:
            # The sampler collects on its own thread; the loop stays
            # free to serve other requests for the whole window.
            await asyncio.sleep(seconds)
        finally:
            profiler.stop()
        return 200, {"seconds": seconds, **profiler.to_dict()}

    def _get_result(self, spec_hash: str) -> "tuple[int, object]":
        text = self.service.store.get_json(spec_hash)
        if text is None:
            raise _HttpError(404, f"no stored result for {spec_hash!r}")
        return 200, text.encode("utf-8")
