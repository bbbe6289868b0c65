"""The SPRINT master/worker framework (paper Figure 1).

Architecture, as described in Dobrzelecki et al. and Section 2 of the paper:

* all participating processes instantiate the runtime, load the SPRINT
  library and initialise MPI;
* the **workers** enter a waiting loop until receipt of an appropriate
  message from the master;
* the **master** evaluates the user's script; when it reaches a parallel
  function from the SPRINT library, the workers are notified, the data and
  computation are distributed, and all ranks collectively evaluate the
  function;
* the master collects the results, performs any necessary reduction and
  returns the result to the user's script.

Here the runtime is Python instead of R, the command channel is the
communicator's ``bcast``, and parallel functions come from a
:class:`~repro.sprint.registry.FunctionRegistry`.

Usage (SPMD — every rank runs the same program)::

    def program(comm):
        sprint = SprintFramework(comm)
        master = sprint.init()          # workers block in the wait loop here
        if master is not None:          # master only
            result = master.call("pmaxT", X, labels, B=10000)
            master.shutdown()
            return result

    results = run_spmd(program, 8)
"""

from __future__ import annotations

from typing import Any, Callable

from ..errors import SprintError
from ..mpi.comm import Communicator
from .registry import FunctionRegistry, default_registry

__all__ = ["SprintFramework", "MasterHandle", "run_sprint"]

# Command opcodes broadcast from the master to the workers.  Scalar codes,
# not strings — the same optimisation the paper's future-work note 3
# suggests for the pmaxT parameters.
_CMD_CALL = 1
_CMD_SHUTDOWN = 2


class MasterHandle:
    """The master's interface for driving the worker pool."""

    def __init__(self, framework: "SprintFramework"):
        self._framework = framework
        self._active = True

    @property
    def nworkers(self) -> int:
        """Number of worker ranks (world size minus the master)."""
        return self._framework.comm.size - 1

    def call(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Collectively evaluate the registered function ``name``.

        The command (opcode, function name, arguments) is broadcast; every
        rank — master included — runs the function against its own
        communicator; the master's return value is returned.
        """
        if not self._active:
            raise SprintError("this SPRINT session has been shut down")
        fw = self._framework
        if name not in fw.registry:
            # Fail before broadcasting so the workers aren't left executing
            # a command the master knows is invalid.
            fw.registry.lookup(name)  # raises with the informative message
        fw.comm.bcast((_CMD_CALL, name, args, kwargs), root=0)
        return fw._execute(name, args, kwargs)

    def shutdown(self) -> None:
        """Release the workers from their waiting loop."""
        if self._active:
            self._framework.comm.bcast((_CMD_SHUTDOWN, None, None, None), root=0)
            self._active = False

    # Context-manager sugar so examples can't leak worker loops.
    def __enter__(self) -> "MasterHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()


class SprintFramework:
    """Per-rank framework instance.

    Parameters
    ----------
    comm:
        The rank's communicator.
    registry:
        The parallel-function library; defaults to the built-in one
        (``pmaxT``, ``papply``).
    """

    def __init__(self, comm: Communicator,
                 registry: FunctionRegistry | None = None):
        self.comm = comm
        self.registry = registry if registry is not None else default_registry()
        self.commands_served = 0

    def init(self) -> MasterHandle | None:
        """Framework entry point: master returns a handle, workers loop.

        On the master this returns immediately with a :class:`MasterHandle`.
        On the workers it blocks inside the waiting loop, serving broadcast
        commands until shutdown, then returns ``None`` — mirroring how the
        SPRINT workers only rejoin the R script when the master finishes.
        """
        if self.comm.is_master:
            return MasterHandle(self)
        self._worker_loop()
        return None

    def _worker_loop(self) -> None:
        while True:
            command = self.comm.bcast(None, root=0)
            if not isinstance(command, tuple) or len(command) != 4:
                raise SprintError(f"malformed framework command: {command!r}")
            opcode, name, args, kwargs = command
            if opcode == _CMD_SHUTDOWN:
                return
            if opcode == _CMD_CALL:
                self._execute(name, args, kwargs)
                continue
            raise SprintError(f"unknown framework opcode {opcode!r}")

    def _execute(self, name: str, args: tuple, kwargs: dict) -> Any:
        fn = self.registry.lookup(name)
        self.commands_served += 1
        return fn(self.comm, *args, **kwargs)


def _session_worker(comm: Communicator,
                    registry: FunctionRegistry | None = None) -> None:
    """Worker-rank half of a session-dispatched SPRINT program.

    Module-level so it can cross a persistent session's job queue; the
    registry must therefore be picklable there (the default registry of
    module-level functions is).
    """
    SprintFramework(comm, registry).init()
    return None


def run_sprint(script: Callable[[MasterHandle], Any], *,
               backend: str = "threads", ranks: int = 2,
               registry: FunctionRegistry | None = None,
               session: Any = None) -> Any:
    """Run a complete SPRINT program over any registered execution backend.

    ``script`` is the master's "R script": it receives the
    :class:`MasterHandle` and drives the worker pool through
    ``handle.call(...)``.  Every rank of the chosen backend runs the
    Figure-1 flow — workers enter the waiting loop, the master evaluates
    ``script`` and shuts the workers down afterwards — and the script's
    return value is returned to the caller::

        def script(master):
            return master.call("pmaxT", X, labels, B=10_000)

        result = run_sprint(script, backend="shm", ranks=8)

    This is the process-world counterpart of
    :class:`~repro.sprint.session.SprintSession` (whose
    master-on-the-calling-thread design needs an in-process backend).
    For the fork-based ``shm`` backend, ``script`` and
    any functions in ``registry`` travel by fork, so closures are fine.

    ``session=`` (a :class:`~repro.mpi.session.BackendSession` from
    :func:`repro.mpi.open_session`) dispatches the program over the
    session's resident world instead of launching one: the master script
    runs in the calling process, the waiting loops on the warm workers.
    ``backend``/``ranks`` are ignored in that case; on a persistent
    session the registry must be picklable.
    """
    from functools import partial

    from ..mpi.backends import run_backend

    def program(comm: Communicator) -> Any:
        framework = SprintFramework(comm, registry)
        master = framework.init()
        if master is None:
            return None
        with master:
            return script(master)

    if session is not None:
        worker = partial(_session_worker, registry=registry)
        return session.run(program, worker_fn=worker)[0]
    return run_backend(backend, program, ranks)[0]
