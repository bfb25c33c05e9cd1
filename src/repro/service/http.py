"""Stdlib HTTP front end for :class:`~.runtime.DecoService`.

No framework, no new dependencies: a ``ThreadingHTTPServer`` handler
translating a small JSON API onto the in-process service, plus a
``urllib``-based client used by ``repro submit`` and the CI smoke test.

API::

    POST /v1/jobs            {"payload": {...}, "tenant": ..., "priority": ...}
                             -> 202 {"job_id": ...}   (201-like accept)
                             -> 429 {"error": ..., "retry_after_s": ...}
                             -> 400 on malformed payloads
    GET  /v1/jobs/<id>       -> 200 status document | 404
    GET  /v1/stats           -> 200 service counters (worker pids included)
    GET  /healthz            -> 200/503 liveness
    GET  /readyz             -> 200/503 readiness (503 while load-shedding
                                is one step from rejection)
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.common.errors import (
    AdmissionError,
    JobNotFound,
    ValidationError,
)

from .runtime import DecoService

__all__ = ["ServiceServer", "ServiceClient"]

_MAX_BODY = 4 * 1024 * 1024  # a WLog program + workflow ref, with headroom


def _make_handler(service: DecoService):
    class Handler(BaseHTTPRequestHandler):
        # Quiet by default; the service keeps its own counters.
        def log_message(self, fmt, *args):  # pragma: no cover
            pass

        def _send(self, code: int, doc: dict) -> None:
            body = json.dumps(doc).encode("utf-8")
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if "retry_after_s" in doc:
                self.send_header("Retry-After", str(max(1, int(doc["retry_after_s"] + 0.5))))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self) -> None:
            try:
                if self.path == "/healthz":
                    doc = service.healthy()
                    self._send(200 if doc["ok"] else 503, doc)
                elif self.path == "/readyz":
                    doc = service.ready()
                    self._send(200 if doc["ok"] else 503, doc)
                elif self.path == "/v1/stats":
                    self._send(200, service.stats())
                elif self.path.startswith("/v1/jobs/"):
                    job_id = self.path[len("/v1/jobs/"):]
                    self._send(200, service.job_status(job_id))
                else:
                    self._send(404, {"error": f"no such route: {self.path}"})
            except JobNotFound as exc:
                self._send(404, {"error": str(exc), "job_id": exc.job_id})
            except Exception as exc:  # never kill the connection thread
                self._send(500, {"error": f"{type(exc).__name__}: {exc}"})

        def do_POST(self) -> None:
            try:
                if self.path != "/v1/jobs":
                    self._send(404, {"error": f"no such route: {self.path}"})
                    return
                length = int(self.headers.get("Content-Length", 0))
                if length > _MAX_BODY:
                    self._send(413, {"error": f"body exceeds {_MAX_BODY} bytes"})
                    return
                try:
                    doc = json.loads(self.rfile.read(length) or b"{}")
                except ValueError as exc:
                    self._send(400, {"error": f"invalid JSON body: {exc}"})
                    return
                job = service.submit(
                    doc.get("payload", {}),
                    tenant=str(doc.get("tenant", "default")),
                    priority=str(doc.get("priority", "standard")),
                )
                self._send(202, {"job_id": job.job_id, "state": job.state})
            except AdmissionError as exc:
                self._send(
                    429,
                    {
                        "error": str(exc),
                        "reason": exc.reason,
                        "retry_after_s": exc.retry_after_s,
                    },
                )
            except ValidationError as exc:
                self._send(400, {"error": str(exc)})
            except Exception as exc:
                self._send(500, {"error": f"{type(exc).__name__}: {exc}"})

    return Handler


class ServiceServer:
    """One service + one threading HTTP server, lifecycle-tied."""

    def __init__(self, service: DecoService, host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self._httpd = ThreadingHTTPServer((host, port), _make_handler(service))
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> None:
        """Start the dispatcher and the HTTP listener (idempotent)."""
        self.service.start()
        if self._thread is not None and self._thread.is_alive():
            return
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="deco-service-http",
            daemon=True,
        )
        self._thread.start()

    def serve_forever(self) -> None:
        """Foreground mode (the ``repro serve`` entrypoint)."""
        self.service.start()
        try:
            self._httpd.serve_forever(poll_interval=0.1)
        except KeyboardInterrupt:  # pragma: no cover
            pass
        finally:
            self.close()

    def close(self) -> None:
        """Idempotent: HTTP listener, dispatcher, workers, journal."""
        try:
            self._httpd.shutdown()
        except Exception:
            pass
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.service.close()

    def __enter__(self) -> "ServiceServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ServiceClient:
    """Minimal urllib client for the JSON API (used by ``repro submit``)."""

    def __init__(self, base_url: str, timeout_s: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s

    def _request(self, method: str, path: str, doc: dict | None = None) -> tuple[int, dict]:
        req = urllib.request.Request(
            self.base_url + path,
            data=None if doc is None else json.dumps(doc).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method=method,
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout_s) as resp:
                return resp.status, json.loads(resp.read() or b"{}")
        except urllib.error.HTTPError as exc:
            try:
                return exc.code, json.loads(exc.read() or b"{}")
            except ValueError:
                return exc.code, {"error": str(exc)}

    def submit(self, payload: dict, *, tenant: str = "default", priority: str = "standard") -> tuple[int, dict]:
        return self._request(
            "POST", "/v1/jobs", {"payload": payload, "tenant": tenant, "priority": priority}
        )

    def status(self, job_id: str) -> tuple[int, dict]:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")[1]

    def wait(self, job_id: str, timeout_s: float = 300.0, poll_s: float = 0.2) -> dict:
        """Poll until the job is terminal; returns its status document."""
        import time

        t_end = time.monotonic() + timeout_s
        while True:
            code, doc = self.status(job_id)
            if code == 200 and doc.get("state") in ("completed", "degraded", "dead_lettered"):
                return doc
            if time.monotonic() > t_end:
                raise TimeoutError(f"job {job_id} not terminal after {timeout_s:g}s: {doc}")
            time.sleep(poll_s)
