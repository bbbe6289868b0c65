"""Minimal stdlib client for the service front-end.

Wraps the JSON endpoints of :mod:`repro.serve.http` with urllib — no
dependencies — so tests, benchmarks and the CI smoke job drive the
service the way an external user would::

    client = ServiceClient("http://127.0.0.1:8071")
    job_id = client.submit_pmaxt(X, labels, B=2_000)["id"]
    doc = client.wait(job_id)          # returns when the job finishes
    adjp = doc["result"]["adjp"]       # bit-identical to pmaxT(...)

Errors map HTTP status codes back onto the library hierarchy:
``429`` -> :class:`~repro.errors.QueueFullError`, other 4xx/5xx ->
:class:`~repro.errors.ServiceError` carrying the server's message.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any

from ..errors import QueueFullError, ServiceError

__all__ = ["ServiceClient"]


class ServiceClient:
    """Talk to one running service front-end."""

    def __init__(self, base_url: str, *, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- transport ---------------------------------------------------------

    def _request(self, method: str, path: str, payload: dict | None = None) -> dict:
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        req = urllib.request.Request(
            self.base_url + path, data=body, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            try:
                doc = json.loads(exc.read())
            except (json.JSONDecodeError, UnicodeDecodeError):
                doc = {}
            message = doc.get("error", f"HTTP {exc.code}")
            if exc.code == 429:
                raise QueueFullError(
                    int(doc.get("depth", 0)), int(doc.get("limit", 0))
                ) from exc
            raise ServiceError(f"{method} {path} -> {exc.code}: {message}") from exc

    # -- endpoints ---------------------------------------------------------

    def submit(self, doc: dict) -> dict:
        """POST a raw job document; returns ``{"id", "state"}``."""
        return self._request("POST", "/v1/jobs", doc)

    def submit_pmaxt(
        self, X, classlabel, *, priority: int = 0, timeout: float | None = None, **params
    ) -> dict:
        """Submit a pmaxT analysis (arrays are shipped as JSON lists)."""
        return self.submit(
            {
                "kind": "pmaxt",
                "data": _listify(X),
                "labels": _listify(classlabel),
                "params": params,
                "priority": priority,
                "timeout": timeout,
            }
        )

    def submit_pcor(
        self, X, *, priority: int = 0, timeout: float | None = None, **params
    ) -> dict:
        """Submit a parallel-correlation job."""
        return self.submit(
            {
                "kind": "pcor",
                "data": _listify(X),
                "params": params,
                "priority": priority,
                "timeout": timeout,
            }
        )

    def get(self, job_id: str) -> dict:
        """One poll of ``GET /v1/jobs/<id>``.

        The server answers as soon as the job is terminal, or with its
        current (queued/running) state after holding the request ~1 s.
        """
        return self._request("GET", f"/v1/jobs/{job_id}")

    def cancel(self, job_id: str) -> dict:
        return self._request("POST", f"/v1/jobs/{job_id}/cancel")

    def wait(self, job_id: str, *, timeout: float = 120.0) -> dict:
        """Poll until the job is terminal; returns its final document.

        Polls back to back: the server holds each poll of a non-terminal
        job until it finishes (or ~1 s), so there is no client-side sleep
        and ``timeout`` may be overrun by up to one hold.

        Raises :class:`~repro.errors.ServiceError` on deadline expiry or
        a failed/cancelled job (the server-reported error is included).
        """
        deadline = time.monotonic() + timeout
        while True:
            doc = self.get(job_id)
            state = doc.get("state")
            if state == "done":
                return doc
            if state in ("failed", "cancelled"):
                detail = doc.get("error", {})
                raise ServiceError(
                    f"job {job_id} ended {state}: "
                    f"{detail.get('type', '')} {detail.get('message', '')}"
                )
            if time.monotonic() >= deadline:
                raise ServiceError(f"timed out waiting for job {job_id} (state {state!r})")

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def statsz(self) -> dict:
        return self._request("GET", "/statsz")


def _listify(value: Any):
    """Arrays -> nested lists; everything JSON-native passes through."""
    return value.tolist() if hasattr(value, "tolist") else value
