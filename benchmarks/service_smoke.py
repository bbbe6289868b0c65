"""CI smoke test: the service front-end, end to end, over real HTTP.

Starts ``repro-maxt serve`` as a subprocess (the way an operator would),
waits for ``/healthz``, submits a pmaxT analysis through
:class:`~repro.serve.client.ServiceClient`, polls it to completion and
asserts the wire result is **bit-identical** to a direct in-process
``pmaxT()`` run — the service tier must never change an answer.  Also
checks ``/statsz`` reports the one resident session and the completed job,
and times 20 keep-alive ``/healthz`` round trips on one connection: a
median above 20 ms means replies stall on the peer's delayed ACK again
(headers and body sent as two writes), which costs ~40 ms per request.

Exit status 0 = all checks passed, 1 = any failure (the CI service-smoke
job gates on it)::

    PYTHONPATH=src python benchmarks/service_smoke.py
    PYTHONPATH=src python benchmarks/service_smoke.py --ranks 4 --b 2000
"""

from __future__ import annotations

import argparse
import http.client
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path
from urllib.parse import urlsplit

import numpy as np

from repro import pmaxT
from repro.data import synthetic_expression, two_class_labels
from repro.serve import ServiceClient

DEFAULT_GENES = 400
DEFAULT_SAMPLES = 32
DEFAULT_B = 1_000
DEFAULT_RANKS = 2
DEFAULT_BACKEND = "threads"

#: Keep-alive ``/healthz`` round trips timed, and the median they must beat.
KEEPALIVE_ROUND_TRIPS = 20
KEEPALIVE_MEDIAN_LIMIT_S = 0.020

_LISTEN_RE = re.compile(r"listening on http://([\d.]+):(\d+)")


def _start_server(ranks: int, backend: str) -> tuple:
    """Launch ``repro-maxt serve --port 0``; return (process, base_url)."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--ranks", str(ranks),
         "--backend", backend],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True,
    )
    # The serve banner names the bound address (port 0 picks a free one).
    line = proc.stdout.readline()
    match = _LISTEN_RE.search(line)
    if not match:
        proc.terminate()
        raise RuntimeError(f"no listen banner from the server: {line!r}")
    return proc, f"http://{match.group(1)}:{match.group(2)}"


def _wait_healthy(client: ServiceClient, deadline_s: float = 30.0) -> None:
    deadline = time.monotonic() + deadline_s
    while True:
        try:
            if client.healthz() == {"status": "ok"}:
                return
        except Exception:
            if time.monotonic() >= deadline:
                raise
        time.sleep(0.1)


def _keepalive_median(base_url: str) -> float:
    """Median seconds of sequential ``GET /healthz`` on one connection."""
    url = urlsplit(base_url)
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=30)
    times = []
    try:
        for _ in range(KEEPALIVE_ROUND_TRIPS):
            t0 = time.perf_counter()
            conn.request("GET", "/healthz")
            conn.getresponse().read()
            times.append(time.perf_counter() - t0)
    finally:
        conn.close()
    return statistics.median(times)


def run_smoke(genes: int, samples: int, B: int, ranks: int,
              backend: str) -> int:
    X, _ = synthetic_expression(
        genes, samples, n_class1=samples // 2, de_fraction=0.1, seed=5)
    labels = two_class_labels(samples // 2, samples - samples // 2)
    direct = pmaxT(X, labels, B=B, seed=17)

    proc, base_url = _start_server(ranks, backend)
    try:
        client = ServiceClient(base_url)
        _wait_healthy(client)
        print(f"healthz ok at {base_url}")

        median_s = _keepalive_median(base_url)
        verdict = "ok" if median_s <= KEEPALIVE_MEDIAN_LIMIT_S else "STALL"
        print(f"keep-alive healthz median {median_s * 1e3:.2f} ms over "
              f"{KEEPALIVE_ROUND_TRIPS} round trips "
              f"(limit {KEEPALIVE_MEDIAN_LIMIT_S * 1e3:.0f} ms): {verdict}")
        if verdict != "ok":
            return 1

        submitted = client.submit_pmaxt(X, labels, B=B, seed=17)
        print(f"submitted {submitted['id']} (state {submitted['state']})")
        doc = client.wait(submitted["id"], timeout=300)
        result = doc["result"]

        # JSON float round-trip is exact for finite doubles: the wire
        # result must equal the in-process one bit for bit.
        checks = {
            "teststat": result["teststat"] == direct.teststat.tolist(),
            "rawp": result["rawp"] == direct.rawp.tolist(),
            "adjp": result["adjp"] == direct.adjp.tolist(),
            "order": result["order"] == direct.order.tolist(),
            "nperm": result["nperm"] == direct.nperm,
        }
        for name, ok in checks.items():
            print(f"bit-identity {name}: {'ok' if ok else 'MISMATCH'}")
        if not all(checks.values()):
            return 1
        sig = int(np.sum(direct.adjp <= 0.05))
        print(f"pmaxT {genes}x{samples} B={doc['result']['nperm']}: "
              f"{sig} genes at FWER 0.05 after {doc['attempts']} attempt(s)")

        stats = client.statsz()
        if stats["pools"] != 1 or stats["jobs_done"] < 1:
            print(f"statsz MISMATCH: {stats}")
            return 1
        print(f"statsz ok: pools={stats['pools']} "
              f"jobs_done={stats['jobs_done']} "
              f"jobs_per_s={stats['jobs_per_s']:.2f}")
        print("service smoke: PASS")
        return 0
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end service smoke: serve subprocess, HTTP "
        "submit/poll, bit-identity vs direct pmaxT.")
    parser.add_argument("--genes", type=int, default=DEFAULT_GENES)
    parser.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    parser.add_argument("--b", type=int, default=DEFAULT_B, dest="B")
    parser.add_argument("--ranks", type=int, default=DEFAULT_RANKS)
    parser.add_argument("--backend", default=DEFAULT_BACKEND)
    args = parser.parse_args(argv)
    return run_smoke(args.genes, args.samples, args.B, args.ranks,
                     args.backend)


if __name__ == "__main__":
    raise SystemExit(main())
