"""User-facing SPRINT session: the "R script" experience.

The paper's usability pitch is that a life scientist runs an unchanged
analysis script under ``mpiexec`` and SPRINT handles the parallelism.  The
Python analogue is :class:`SprintSession`: a context manager that stands up
an SPMD world in-process (worker threads running the framework waiting
loop), exposes the parallel library to the calling thread, and tears
everything down on exit::

    with SprintSession(nprocs=4) as sprint:
        result = sprint.pmaxT(X, labels, test="t", B=150_000)
        mapped = sprint.call("papply", f, items)

This mirrors ``mpiexec -n NSLOTS R --no-save -f SCRIPT`` (paper Section
4.2) with the process pool replaced by the in-process thread world.
"""

from __future__ import annotations

import threading
from typing import Any

from ..errors import SprintError
from ..mpi.serial import SerialComm
from ..mpi.threads import ThreadWorld
from .framework import MasterHandle, SprintFramework
from .registry import FunctionRegistry, default_registry

__all__ = ["SprintSession"]


class SprintSession:
    """An in-process SPRINT world with the calling thread as master.

    ``backend`` names the execution backend the session's world runs on and
    must be an *in-process* one (``"threads"``, the default, or
    ``"serial"`` with ``nprocs=1``): the session's defining feature is that
    the calling thread *is* rank 0, which a fork-based world cannot offer.
    For the fork-based ``"shm"`` backend use
    :func:`repro.sprint.run_sprint`, which runs the whole SPRINT program —
    master script included — inside the launched world; pair it with a
    persistent :class:`~repro.mpi.session.BackendSession`
    (``run_sprint(script, session=...)``) to keep that world's worker
    pool resident across programs.
    """

    def __init__(self, nprocs: int = 2,
                 registry: FunctionRegistry | None = None,
                 backend: str = "threads"):
        if nprocs < 1:
            raise SprintError(f"nprocs must be >= 1, got {nprocs}")
        from ..mpi.backends import resolve_backend

        try:
            resolved = resolve_backend(backend)
        except Exception as exc:
            raise SprintError(str(exc)) from exc
        if not resolved.in_process:
            raise SprintError(
                f"SprintSession needs an in-process backend (the calling "
                f"thread is the master rank); {resolved.name!r} launches "
                "separate processes — use repro.sprint.run_sprint for it")
        if resolved.name not in ("threads", "serial"):
            # The session builds its world from the backend's communicator
            # machinery directly (the calling thread must be rank 0), which
            # only the built-in in-process worlds expose.  Custom backends
            # run through run_sprint, whose contract is just Backend.run.
            raise SprintError(
                f"SprintSession supports the built-in 'threads' and "
                f"'serial' backends, not {resolved.name!r}; use "
                "repro.sprint.run_sprint to drive a custom backend")
        if resolved.name == "serial" and nprocs != 1:
            raise SprintError(
                f"backend 'serial' is a one-rank world, got nprocs={nprocs}")
        self.backend = resolved.name
        self.nprocs = nprocs
        self.registry = registry if registry is not None else default_registry()
        self._world: ThreadWorld | None = None
        self._workers: list[threading.Thread] = []
        self._worker_errors: list[BaseException] = []
        self._master: MasterHandle | None = None
        self._datasets = None

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "SprintSession":
        if self._master is not None:
            raise SprintError("session already started")
        if self.backend == "serial":
            framework = SprintFramework(SerialComm(), self.registry)
            self._master = framework.init()
            return self
        self._world = ThreadWorld(self.nprocs)

        def worker(rank: int) -> None:
            try:
                SprintFramework(self._world.comm(rank), self.registry).init()
            except BaseException as exc:  # noqa: BLE001 - surfaced at close
                self._worker_errors.append(exc)
                self._world.abort(rank)

        self._workers = [
            threading.Thread(target=worker, args=(r,), name=f"sprint-worker-{r}",
                             daemon=True)
            for r in range(1, self.nprocs)
        ]
        for t in self._workers:
            t.start()
        framework = SprintFramework(self._world.comm(0), self.registry)
        self._master = framework.init()
        return self

    def close(self) -> None:
        if self._datasets is not None:
            self._datasets, registry = None, self._datasets
            registry.close()
        if self._master is not None:
            self._master.shutdown()
            self._master = None
        for t in self._workers:
            t.join(timeout=30)
        self._workers = []
        if self._worker_errors:
            exc = self._worker_errors[0]
            self._worker_errors = []
            raise SprintError(f"a worker rank failed: {exc!r}") from exc

    def __enter__(self) -> "SprintSession":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        # If user code already blew up, don't mask it with shutdown noise.
        try:
            self.close()
        except SprintError:
            if exc_type is None:
                raise

    # -- the parallel library ------------------------------------------------------

    def call(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Collectively evaluate a registered parallel function."""
        if self._master is None:
            raise SprintError("session not started; use `with SprintSession(...)`")
        return self._master.call(name, *args, **kwargs)

    def publish(self, X, labels=None):
        """Publish a dataset once for repeated analyses in this session.

        The session's world is in-process (the defining feature of
        :class:`SprintSession`), so the registry keeps plain read-only
        arrays — broadcast is already zero-copy here — and publishing
        buys the stable fingerprint, the frozen snapshot, and the cached
        dtype variants.  Pass the returned handle in place of ``X``::

            h = sprint.publish(X, labels=y)
            result = sprint.pmaxT(h, B=150_000)
        """
        if self._master is None:
            raise SprintError("session not started; use `with SprintSession(...)`")
        if self._datasets is None:
            from ..mpi.datasets import DatasetRegistry

            self._datasets = DatasetRegistry(use_shm=False)
        return self._datasets.publish(X, labels=labels)

    def pmaxT(self, X, classlabel=None, **kwargs: Any):
        """The paper's function: parallel maxT over this session's world.

        ``classlabel`` may be omitted when ``X`` is a published-dataset
        handle carrying labels (see :meth:`publish`).
        """
        return self.call("pmaxT", X, classlabel, **kwargs)

    @property
    def size(self) -> int:
        """World size (master + workers)."""
        return self.nprocs
