"""Service job descriptions and handles.

A :class:`JobSpec` is what a client asks for — a pmaxT or pcor analysis
(or, internally, a raw SPMD callable) plus scheduling knobs — and a
:class:`ServiceJob` is the manager's handle for one admitted spec: its
lifecycle state, timing, attempts and result.  It is the only job state
machine in the tree (a session just runs one job at a time): ``queued ->
running -> done | failed``, or ``queued -> cancelled``.  A job whose world
crashed mid-run stays ``running`` while the manager reruns it once
(permutation results are deterministic, so a rerun is indistinguishable
from a first run).
"""

from __future__ import annotations

import dataclasses
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

from ..errors import CommunicatorError

__all__ = ["JobSpec", "ServiceJob"]

#: Lifecycle states of a :class:`ServiceJob`.
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_CANCELLED = "cancelled"

_JOB_TERMINAL = frozenset({JOB_DONE, JOB_FAILED, JOB_CANCELLED})

#: Analysis kinds the service understands.
JOB_KINDS = ("pmaxt", "pcor", "fn")


@dataclass
class JobSpec:
    """One requested analysis.

    ``kind`` selects the entry point: ``"pmaxt"`` and ``"pcor"`` run the
    library functions on ``data``/``labels`` with keyword ``params``;
    ``"fn"`` runs a raw SPMD callable (``fn`` on rank 0, ``worker_fn`` on
    the workers — the session dispatch contract), used by tests and
    embedders, never exposed over HTTP.
    """

    kind: str = "pmaxt"
    data: Any = None
    labels: Any = None
    params: dict = field(default_factory=dict)
    #: Lower runs first; ties in admission order.
    priority: int = 0
    #: Per-run execution deadline in seconds (``None`` = manager default).
    timeout: float | None = None
    fn: Callable | None = None
    worker_fn: Callable | None = None


class ServiceJob:
    """Handle to one admitted job; thread-safe."""

    def __init__(self, job_id: str, spec: JobSpec):
        self.id = job_id
        self.spec = spec
        self.submitted_at = time.time()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        #: Execution attempts (2 after a crash retry).
        self.attempts = 0
        #: True when the result came straight from the result cache.
        self.cached = False
        self._cond = threading.Condition()
        self._state = JOB_QUEUED
        self._result: Any = None
        self._error: BaseException | None = None

    # -- inspection --------------------------------------------------------

    @property
    def state(self) -> str:
        with self._cond:
            return self._state

    def done(self) -> bool:
        with self._cond:
            return self._state in _JOB_TERMINAL

    # -- consumption -------------------------------------------------------

    def cancel(self) -> bool:
        """Withdraw the job if still queued; a running SPMD job is not
        interruptible (its collectives span every rank), so bound it with
        ``JobSpec.timeout`` instead."""
        with self._cond:
            if self._state == JOB_QUEUED:
                self._state = JOB_CANCELLED
                self.finished_at = time.time()
                self._release_inputs()
                self._cond.notify_all()
                return True
            return self._state == JOB_CANCELLED

    def result(self, timeout: float | None = None) -> Any:
        """Block for the job's result; re-raise its failure."""
        with self._cond:
            if not self._cond.wait_for(
                lambda: self._state in _JOB_TERMINAL, timeout
            ):
                raise CommunicatorError(
                    f"timed out waiting for service job {self.id} "
                    f"(state {self._state!r})"
                )
            if self._state == JOB_CANCELLED:
                raise CommunicatorError(
                    f"service job {self.id} was cancelled"
                )
            if self._error is not None:
                raise self._error
            return self._result

    def wait(self, timeout: float | None = None) -> bool:
        """Block until terminal; True unless ``timeout`` expired first."""
        with self._cond:
            return self._cond.wait_for(
                lambda: self._state in _JOB_TERMINAL, timeout
            )

    # -- manager-side transitions ------------------------------------------

    def _start(self) -> bool:
        """Claim the job for the runner; False when cancellation won."""
        with self._cond:
            if self._state != JOB_QUEUED:
                return False
            self._state = JOB_RUNNING
            if self.started_at is None:
                self.started_at = time.time()
            self.attempts += 1
            return True

    def _retry(self) -> None:
        """Count the rerun that follows a world failure."""
        with self._cond:
            self.attempts += 1

    def _release_inputs(self) -> None:
        """Drop the submitted matrix once the job is terminal.

        The manager retains up to 2000 finished jobs for polling; their
        input matrices (a parsed JSON list of lists for HTTP jobs) would
        otherwise stay resident with them.  The caller's spec object is
        left untouched.  Called with ``_cond`` held.
        """
        self.spec = dataclasses.replace(self.spec, data=None, labels=None)

    def _finish(self, result: Any, *, cached: bool = False) -> None:
        with self._cond:
            self._result = result
            self.cached = cached
            self._state = JOB_DONE
            self.finished_at = time.time()
            if self.started_at is None:
                self.started_at = self.finished_at
            self._release_inputs()
            self._cond.notify_all()

    def _fail(self, error: BaseException) -> None:
        # The traceback's frames hold the run's locals, the input matrix
        # among them; clearing them keeps the traceback printable.
        traceback.clear_frames(error.__traceback__)
        with self._cond:
            self._error = error
            self._state = JOB_FAILED
            self.finished_at = time.time()
            self._release_inputs()
            self._cond.notify_all()

    # -- serialisation -----------------------------------------------------

    def to_dict(self, *, include_result: bool = True) -> dict:
        """JSON-ready view of the job (what ``GET /v1/jobs/<id>`` returns).

        The result payload is included only in terminal-success state:
        ``MaxTResult`` serialises via its own ``to_dict`` (plain lists, so
        JSON float round-tripping keeps every value bit-identical) and
        array results via ``tolist``.
        """
        with self._cond:
            doc: dict[str, Any] = {
                "id": self.id,
                "kind": self.spec.kind,
                "state": self._state,
                "priority": self.spec.priority,
                "submitted_at": self.submitted_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "attempts": self.attempts,
                "cached": self.cached,
            }
            if self._state == JOB_FAILED and self._error is not None:
                doc["error"] = {
                    "type": type(self._error).__name__,
                    "message": str(self._error),
                }
            if include_result and self._state == JOB_DONE:
                result = self._result
                if hasattr(result, "to_dict"):
                    doc["result"] = result.to_dict()
                elif hasattr(result, "tolist"):
                    doc["result"] = result.tolist()
                else:
                    doc["result"] = result
            return doc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ServiceJob(id={self.id!r}, kind={self.spec.kind!r}, "
            f"state={self.state!r}, attempts={self.attempts})"
        )
