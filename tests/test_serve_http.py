"""HTTP front-end: endpoints, backpressure codes, wire bit-identity,
one-write replies, keep-alive framing and held job polls."""

import contextlib
import functools
import http.client
import json
import os
import re
import select
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import pmaxT
from repro.errors import QueueFullError, ServiceError
from repro.serve import JobSpec, PoolManager, ServiceClient, make_server
from repro.serve import http as serve_http


@pytest.fixture
def dataset():
    rng = np.random.default_rng(19)
    X = rng.normal(size=(30, 12))
    labels = [0] * 6 + [1] * 6
    return X, labels


@contextlib.contextmanager
def _running_server():
    """An in-process server over one serial pool (max_queue=2)."""
    manager = PoolManager("serial", 1, max_queue=2)
    server = make_server(manager, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        manager.close()


@pytest.fixture
def service():
    """Yields (client, manager) for a fresh in-process server."""
    with _running_server() as server:
        port = server.server_address[1]
        yield ServiceClient(f"http://127.0.0.1:{port}"), server.manager


def _blocker(comm, started=None, release=None):
    started.set()
    release.wait(30)
    return "blocked"


def _start_blocker(manager):
    """Occupy the single pool until the returned event is set."""
    started, release = threading.Event(), threading.Event()
    job = manager.submit(JobSpec(kind="fn", fn=functools.partial(
        _blocker, started=started, release=release)))
    assert started.wait(30)
    return job, release


def _port(client):
    return int(client.base_url.rsplit(":", 1)[1])


def _call(port, method, path, body=None, headers=None):
    """One request on a fresh connection; returns (status, JSON doc)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(method, path, body, headers or {})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def _exchange(port, raw, timeout=5.0):
    """Send raw bytes on one connection and read until the server ends it.

    Returns (bytes received, ``"closed"`` or ``"open"``); ``"open"``
    means the server kept the connection alive past ``timeout``.
    """
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(raw)
        data = b""
        try:
            while chunk := sock.recv(65536):
                data += chunk
        except ConnectionResetError:
            pass
        except socket.timeout:
            return data, "open"
        return data, "closed"


def _held_get(client, job_id):
    """Send one poll on a thread; returns (thread, box) where the box
    receives the reply document and its arrival time."""
    box = {}

    def run():
        box["doc"] = client.get(job_id)
        box["at"] = time.monotonic()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, box


def _pmaxt_doc(dataset, **overrides):
    X, labels = dataset
    return {"kind": "pmaxt", "data": X.tolist(), "labels": labels,
            "params": {"B": 50}, **overrides}


class TestEndpoints:
    def test_pmaxt_round_trip_bit_identical(self, service, dataset):
        client, _ = service
        X, labels = dataset
        direct = pmaxT(X, labels, B=200, seed=3)
        submitted = client.submit_pmaxt(X, labels, B=200, seed=3)
        assert submitted["state"] in ("queued", "running", "done")
        doc = client.wait(submitted["id"], timeout=120)
        result = doc["result"]
        # JSON float round-trip is exact for finite doubles: the wire
        # result equals the in-process one bit for bit.
        assert result["teststat"] == direct.teststat.tolist()
        assert result["rawp"] == direct.rawp.tolist()
        assert result["adjp"] == direct.adjp.tolist()
        assert result["order"] == direct.order.tolist()
        assert result["nperm"] == direct.nperm
        assert doc["attempts"] == 1

    def test_pcor_round_trip(self, service, dataset):
        from repro.corr import pcor

        client, _ = service
        X, _labels = dataset
        direct = pcor(X)
        doc = client.wait(client.submit_pcor(X)["id"], timeout=120)
        assert doc["result"] == direct.tolist()

    def test_healthz_and_statsz(self, service):
        client, _ = service
        assert client.healthz() == {"status": "ok"}
        stats = client.statsz()
        assert stats["pools"] == 1
        assert stats["max_queue"] == 2
        assert "jobs_per_s" in stats
        assert stats["busy"] is False and stats["healthy"] is True

    def test_unknown_job_is_404(self, service):
        client, _ = service
        with pytest.raises(ServiceError, match="404"):
            client.get("job-999999")

    def test_unknown_path_is_404(self, service):
        client, _ = service
        with pytest.raises(ServiceError, match="404"):
            client._request("GET", "/nope")

    def test_bad_kind_is_400(self, service):
        client, _ = service
        with pytest.raises(ServiceError, match="400"):
            client.submit({"kind": "fn", "data": []})

    def test_invalid_json_is_400(self, service):
        client, _ = service
        req = urllib.request.Request(
            client.base_url + "/v1/jobs", data=b"{not json",
            headers={"Content-Type": "application/json"}, method="POST")
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(req, timeout=10)
        assert info.value.code == 400
        assert "invalid JSON" in json.loads(info.value.read())["error"]

    def test_bad_params_are_400(self, service, dataset):
        client, _ = service
        X, labels = dataset
        with pytest.raises(ServiceError, match="400"):
            client.submit_pmaxt(X, labels, backend="shm")

    @pytest.mark.parametrize("field, value", [
        ("Content-Length", "abc"), ("priority", "high"), ("priority", None),
        ("priority", [1]), ("priority", True), ("timeout", "abc"),
        ("timeout", -1),
    ])
    def test_malformed_fields_are_400(self, service, dataset, capfd, field, value):
        client, _ = service
        if field == "Content-Length":
            body, headers = None, {field: value}
        else:
            body = json.dumps(_pmaxt_doc(dataset, **{field: value})).encode()
            headers = {"Content-Type": "application/json"}
        status, doc = _call(_port(client), "POST", "/v1/jobs", body, headers)
        assert status == 400
        assert field in doc["error"]
        # A handled error, not a handler crash: no traceback on stderr.
        assert capfd.readouterr().err == ""


class TestBackpressureAndCancel:
    def test_full_queue_is_429(self, service, dataset):
        client, manager = service
        X, labels = dataset
        _, release = _start_blocker(manager)
        accepted = [client.submit_pmaxt(X, labels, B=50)
                    for _ in range(2)]  # fills max_queue=2
        with pytest.raises(QueueFullError) as info:
            client.submit_pmaxt(X, labels, B=50)
        assert info.value.limit == 2
        release.set()
        for doc in accepted:
            client.wait(doc["id"], timeout=120)

    def test_cancel_queued_over_http(self, service, dataset):
        client, manager = service
        X, labels = dataset
        _, release = _start_blocker(manager)
        queued = client.submit_pmaxt(X, labels, B=50)
        doc = client.cancel(queued["id"])
        assert doc["cancelled"] is True
        assert doc["state"] == "cancelled"
        release.set()
        # a terminal cancelled job reports its state on GET
        assert client.get(queued["id"])["state"] == "cancelled"

    def test_cancel_unknown_job_is_404(self, service):
        client, _ = service
        with pytest.raises(ServiceError, match="404"):
            client.cancel("job-424242")


class _CountingWriter:
    """Wraps a handler's ``wfile``; logs the size of every write."""

    def __init__(self, raw, log):
        self._raw, self._log = raw, log

    def write(self, data):
        self._log.append(len(data))
        return self._raw.write(data)

    def __getattr__(self, name):
        return getattr(self._raw, name)


class _CountingHandler(serve_http._ServiceHandler):
    def setup(self):
        super().setup()
        self.wfile = _CountingWriter(self.wfile, self.server.writes)


class TestWireFraming:
    def test_every_reply_is_one_write(self, monkeypatch, dataset):
        monkeypatch.setattr(serve_http, "_ServiceHandler", _CountingHandler)
        monkeypatch.setattr(serve_http, "_POLL_HOLD_S", 0.05)
        monkeypatch.setattr(serve_http, "_MAX_BODY", 20_000)
        body = json.dumps(_pmaxt_doc(dataset)).encode()
        assert len(body) < 20_000
        json_headers = {"Content-Type": "application/json"}
        with _running_server() as server:
            server.writes = []
            port = server.server_address[1]

            def writes_for(method, path, body=None, status=200):
                before = len(server.writes)
                got, doc = _call(port, method, path, body, json_headers)
                assert got == status, doc
                return len(server.writes) - before, doc

            assert writes_for("GET", "/healthz")[0] == 1
            assert writes_for("GET", "/statsz")[0] == 1
            _, release = _start_blocker(server.manager)
            try:
                n, first = writes_for("POST", "/v1/jobs", body, 202)
                assert n == 1
                n, second = writes_for("POST", "/v1/jobs", body, 202)
                assert n == 1
                assert writes_for("POST", "/v1/jobs", body, 429)[0] == 1
                n, doc = writes_for("GET", f"/v1/jobs/{first['id']}")
                assert (n, doc["state"]) == (1, "queued")
                n, doc = writes_for("POST", f"/v1/jobs/{second['id']}/cancel")
                assert (n, doc["state"]) == (1, "cancelled")
                bad_kind = json.dumps({"kind": "fn"}).encode()
                assert writes_for("POST", "/v1/jobs", bad_kind, 400)[0] == 1
                assert writes_for("GET", "/nope", status=404)[0] == 1
                assert writes_for("POST", "/v1/jobs", b" " * 30_000, 413)[0] == 1
            finally:
                release.set()
            assert server.manager.job(first["id"]).wait(60)
            n, doc = writes_for("GET", f"/v1/jobs/{first['id']}")
            assert (n, doc["state"]) == (1, "done")
            assert doc["result"]["nperm"] == 50

    def test_keep_alive_round_trips_do_not_stall(self, service):
        client, _ = service
        conn = http.client.HTTPConnection("127.0.0.1", _port(client), timeout=30)
        times = []
        try:
            for _ in range(20):
                t0 = time.perf_counter()
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                assert json.loads(resp.read()) == {"status": "ok"}
                times.append(time.perf_counter() - t0)
        finally:
            conn.close()
        # A reply split into two sends waits ~40 ms for the delayed ACK.
        assert statistics.median(times) < 0.020, times

    def test_unread_body_is_not_parsed_as_next_request(self, service, monkeypatch):
        client, _ = service
        monkeypatch.setattr(serve_http, "_MAX_BODY", 1000)
        embedded = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        body = embedded * (1500 // len(embedded) + 1)
        head = (b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body))
        data, ended = _exchange(_port(client), head + body)
        assert data.count(b"HTTP/1.1 ") == 1, data
        assert data.startswith(b"HTTP/1.1 413 ")
        assert b"Connection: close" in data
        assert ended == "closed"

    def test_consumed_body_keeps_the_connection(self, service):
        client, _ = service
        body = b"{not json"
        request = (b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
                   b"Content-Length: %d\r\n\r\n" % len(body) + body
                   + b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                   b"Connection: close\r\n\r\n")
        data, ended = _exchange(_port(client), request)
        assert data.startswith(b"HTTP/1.1 400 ")
        assert data.count(b"HTTP/1.1 ") == 2
        assert data.endswith(b'{"status": "ok"}')
        assert ended == "closed"


class TestHeldPoll:
    def test_poll_answers_when_the_job_finishes(self, service):
        client, manager = service
        job, release = _start_blocker(manager)
        try:
            thread, box = _held_get(client, job.id)
            time.sleep(0.3)
            assert "doc" not in box  # held while the job runs
        finally:
            released = time.monotonic()
            release.set()
        thread.join(10)
        assert not thread.is_alive()
        assert box["doc"]["state"] == "done"
        assert box["doc"]["result"] == ["blocked"]
        assert box["at"] - released < 0.2

    def test_poll_of_a_stuck_job_returns_after_the_hold(self, service):
        client, manager = service
        job, release = _start_blocker(manager)
        try:
            t0 = time.monotonic()
            doc = client.get(job.id)
            elapsed = time.monotonic() - t0
        finally:
            release.set()
        assert doc["state"] == "running"
        assert serve_http._POLL_HOLD_S * 0.9 <= elapsed < serve_http._POLL_HOLD_S + 0.5

    def test_held_poll_sees_a_cancel_promptly(self, service, dataset):
        client, manager = service
        _, release = _start_blocker(manager)
        try:
            queued = client.submit(_pmaxt_doc(dataset))
            thread, box = _held_get(client, queued["id"])
            time.sleep(0.2)
            cancelled = time.monotonic()
            assert client.cancel(queued["id"])["cancelled"] is True
            thread.join(10)
        finally:
            release.set()
        assert not thread.is_alive()
        assert box["doc"]["state"] == "cancelled"
        assert box["at"] - cancelled < 0.2

    def test_shutdown_with_a_poll_in_flight(self, dataset):
        with _running_server() as server:
            manager = server.manager
            client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
            _, release = _start_blocker(manager)
            queued = client.submit(_pmaxt_doc(dataset))
            thread, box = _held_get(client, queued["id"])
            time.sleep(0.2)
            t0 = time.monotonic()
            server.shutdown()
            # close() cancels the queued job (waking the held poll), then
            # joins the runner, which the blocker occupies until released.
            closer = threading.Thread(target=manager.close, daemon=True)
            closer.start()
            thread.join(serve_http._POLL_HOLD_S + 2)
            release.set()
            closer.join(30)
            elapsed = time.monotonic() - t0
            assert not thread.is_alive() and not closer.is_alive()
            assert box["doc"]["state"] == "cancelled"
            assert elapsed < serve_http._POLL_HOLD_S + 2


def _ignore_sigint():
    signal.signal(signal.SIGINT, signal.SIG_IGN)


class TestServeShutdown:
    @pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM],
                             ids=["sigint", "sigterm"])
    def test_signal_shuts_serve_down_cleanly(self, sig):
        """``repro-maxt serve`` exits 0 on either signal, even when it
        inherits SIGINT ignored, as a background shell job does."""
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONUNBUFFERED="1", PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--ranks", "1"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, preexec_fn=_ignore_sigint)
        try:
            assert "listening on" in proc.stdout.readline()
            proc.send_signal(sig)
            _, err = proc.communicate(timeout=10)
            assert proc.returncode == 0, err
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

    def test_banner_reaches_a_pipe_without_unbuffered_mode(self):
        """The port banner is flushed, so a reader on a pipe sees it
        while the server runs, not only when the process exits."""
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--ranks", "1"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        try:
            readable, _, _ = select.select([proc.stdout], [], [], 30)
            assert readable, "no banner within 30 s"
            line = proc.stdout.readline()
            assert line.startswith("repro-serve listening on http://")
            # The `:<port> ` shape port scrapers rely on.
            port = int(re.search(r":(\d+) ", line).group(1))
            assert port > 0
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=10)
            assert proc.returncode == 0, err
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
