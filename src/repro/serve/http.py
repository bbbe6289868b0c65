"""Thin stdlib HTTP front-end over a :class:`~repro.serve.PoolManager`.

Endpoints (JSON in, JSON out)::

    POST /v1/jobs              submit {"kind": "pmaxt"|"pcor", "data": [[..]],
                               "labels": [..], "params": {..}, "priority": 0,
                               "timeout": null} -> 202 {"id": .., "state": ..}
    GET  /v1/jobs/<id>         poll; answered when the job ends (or after a
                               ~1 s hold); terminal success includes "result"
    POST /v1/jobs/<id>/cancel  withdraw a queued job
    GET  /healthz              200 {"status": "ok"} unless the last run ended
                               in a world failure
    GET  /statsz               runner busy flag, queue depth, cache hit rate,
                               jobs/s (PoolManager.stats())

Backpressure: a full admission queue turns into ``429 Too Many Requests``
with a JSON error body — clients retry after the backlog drains.  Invalid
requests (malformed ``Content-Length``, a non-integer ``priority``, a
``timeout`` that is not a non-negative number or null) are ``400``,
oversized bodies ``413``, unknown jobs/paths ``404``.

Every reply leaves the handler as **one write**: status line, headers,
blank line and body in a single buffer.  Headers and body written as two
small sends stall each keep-alive reply by the peer's delayed ACK
(~40 ms): Nagle holds the second send until the first is acknowledged.
One send needs no ``TCP_NODELAY``.

``GET /v1/jobs/<id>`` on a queued or running job **holds** the request
until the job turns terminal (done, failed or cancelled) or
``_POLL_HOLD_S`` passes, whichever is first, so a poller learns of
completion the moment it happens without spinning.  A non-terminal reply
after the hold is still a valid poll answer; the client simply asks
again.

A reply sent without reading the request's declared body (``413``, a
malformed ``Content-Length``, a chunked body, a POST to an unknown path
or to ``/cancel``) carries ``Connection: close`` and ends the
connection, so the unread bytes can never be parsed as the next request.

The server is :class:`http.server.ThreadingHTTPServer` — one thread per
in-flight request, which is plenty for a front-end whose heavy work
happens on the manager's runner.  Results serialise through
``ServiceJob.to_dict``; Python's JSON float round-trip is exact for
finite doubles, so a pmaxT result fetched over HTTP is bit-identical to
the direct ``pmaxT()`` return (asserted end-to-end by the CI smoke job).
"""

from __future__ import annotations

import json
import signal
import threading
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..errors import DataError, OptionError, QueueFullError, ServiceError
from .jobs import JobSpec
from .manager import PoolManager

__all__ = ["make_server", "serve_forever"]

#: Request body size cap (100 MB of JSON ~ a 6500x1000 float64 matrix).
_MAX_BODY = 100 * 1024 * 1024

#: Job kinds accepted over the wire (the raw-callable kind is not).
_HTTP_KINDS = ("pmaxt", "pcor")

#: Longest a job poll waits for the job to turn terminal before replying
#: with its current state (well under ``ServiceClient``'s socket timeout).
_POLL_HOLD_S = 1.0


class _ServiceHandler(BaseHTTPRequestHandler):
    """One request; the manager lives on the server object."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    # -- plumbing ----------------------------------------------------------

    @property
    def manager(self) -> PoolManager:
        return self.server.manager  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    def parse_request(self) -> bool:
        self._body_read = False
        return super().parse_request()

    def _reply(self, code: int, payload: dict) -> None:
        """Send the whole response — head and JSON body — in one write."""
        if not self._body_read and (
            self.headers.get("Content-Length", "0").strip() != "0"
            or "Transfer-Encoding" in self.headers
        ):
            self.close_connection = True
        body = json.dumps(payload).encode()
        self.log_request(code)
        head = [
            f"{self.protocol_version} {code} {HTTPStatus(code).phrase}",
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
        ]
        if self.close_connection:
            head.append("Connection: close")
        self.wfile.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)

    def _error(self, code: int, message: str, **extra) -> None:
        self._reply(code, {"error": message, **extra})

    def _read_json(self) -> dict | None:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            self._error(400, "Content-Length must be an integer")
            return None
        if length <= 0:
            self._error(400, "a JSON request body is required")
            return None
        if length > _MAX_BODY:
            self._error(413, f"request body exceeds {_MAX_BODY} bytes")
            return None
        raw = self.rfile.read(length)
        self._body_read = True
        try:
            doc = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            self._error(400, f"invalid JSON body: {exc}")
            return None
        if not isinstance(doc, dict):
            self._error(400, "the request body must be a JSON object")
            return None
        return doc

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        if self.path == "/healthz":
            if self.manager.healthy():
                self._reply(200, {"status": "ok"})
            else:
                self._reply(503, {"status": "unhealthy"})
        elif self.path == "/statsz":
            self._reply(200, self.manager.stats())
        elif self.path.startswith("/v1/jobs/"):
            job_id = self.path[len("/v1/jobs/") :]
            job = self.manager.job(job_id)
            if job is None:
                self._error(404, f"unknown job {job_id!r}")
            else:
                job.wait(_POLL_HOLD_S)
                self._reply(200, job.to_dict())
        else:
            self._error(404, f"unknown path {self.path!r}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if self.path == "/v1/jobs":
            self._submit()
        elif self.path.startswith("/v1/jobs/") and self.path.endswith("/cancel"):
            job_id = self.path[len("/v1/jobs/") : -len("/cancel")]
            job = self.manager.job(job_id)
            if job is None:
                self._error(404, f"unknown job {job_id!r}")
            else:
                self._reply(200, {"id": job.id, "cancelled": job.cancel(), "state": job.state})
        else:
            self._error(404, f"unknown path {self.path!r}")

    def _submit(self) -> None:
        doc = self._read_json()
        if doc is None:
            return
        kind = doc.get("kind", "pmaxt")
        if kind not in _HTTP_KINDS:
            self._error(
                400,
                f"unknown job kind {kind!r}; expected one of {', '.join(_HTTP_KINDS)}",
            )
            return
        params = doc.get("params", {})
        if not isinstance(params, dict):
            self._error(400, "params must be a JSON object")
            return
        spec = JobSpec(
            kind=kind,
            data=doc.get("data"),
            labels=doc.get("labels"),
            params=params,
            priority=doc.get("priority", 0),
            timeout=doc.get("timeout"),
        )
        try:
            job = self.manager.submit(spec)
        except QueueFullError as exc:
            self._error(429, str(exc), depth=exc.depth, limit=exc.limit)
        except (OptionError, DataError, ValueError, TypeError) as exc:
            self._error(400, str(exc))
        except ServiceError as exc:
            self._error(503, str(exc))
        else:
            self._reply(202, {"id": job.id, "state": job.state})


def make_server(
    manager: PoolManager, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """Bind the front-end (``port=0`` picks a free port; see
    ``server.server_address``).  The caller owns both lifetimes: run
    ``serve_forever()`` (or :func:`serve_forever` below for the signal
    handling), then ``shutdown()`` the server and ``close()`` the manager.
    """
    server = ThreadingHTTPServer((host, port), _ServiceHandler)
    server.daemon_threads = True
    server.manager = manager  # type: ignore[attr-defined]
    return server


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def serve_forever(manager: PoolManager, host: str = "127.0.0.1", port: int = 8071) -> None:
    """Blocking convenience loop for the CLI: serve until interrupted.

    On the main thread, SIGINT and SIGTERM both end the loop through
    ``KeyboardInterrupt``, whatever dispositions the process inherited (a
    background job starts with SIGINT ignored), so the session is always
    closed.  The banner is flushed at once: a reader on a pipe waits for
    that line to learn the port.  The previous handlers come back on return.
    """
    server = make_server(manager, host, port)
    previous = {}
    try:
        if threading.current_thread() is threading.main_thread():
            for sig, handler in (
                (signal.SIGINT, signal.default_int_handler),
                (signal.SIGTERM, _interrupt),
            ):
                previous[sig] = signal.signal(sig, handler)
        addr = server.server_address
        print(
            f"repro-serve listening on http://{addr[0]}:{addr[1]} "
            f"(backend={manager.session.backend_name}, ranks={manager.ranks})",
            flush=True,
        )
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        # serve_forever() runs on this thread, so it has returned by now
        # (or never started): no shutdown() handshake is needed.
        server.server_close()
        manager.close()
        for sig, handler in previous.items():
            signal.signal(sig, handler)
