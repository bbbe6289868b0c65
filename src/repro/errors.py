"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch a single base class.  The hierarchy mirrors the main failure domains of
the SPRINT pmaxT reproduction: user-facing option validation, permutation
generator state, MPI-substrate communication, and cluster-model
configuration.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "OptionError",
    "DataError",
    "PermutationError",
    "CompletePermutationOverflow",
    "CommunicatorError",
    "CommAbort",
    "WorkerDeadError",
    "ServiceError",
    "QueueFullError",
    "SprintError",
    "ClusterModelError",
]


class ReproError(Exception):
    """Base class for every exception raised by :mod:`repro`."""


class OptionError(ReproError, ValueError):
    """An invalid argument was passed through the R-style interface.

    Raised by the option pre-processing step (Step 1 of the parallel
    implementation in the paper) when e.g. ``test`` names an unknown
    statistic, ``side`` is not one of ``abs``/``upper``/``lower`` or ``B``
    is negative.
    """


class DataError(ReproError, ValueError):
    """The input matrix or class labels are malformed.

    Examples: labels whose length does not match the number of columns,
    a paired design with an odd number of samples, or a block design whose
    blocks are not balanced.
    """


class PermutationError(ReproError, ValueError):
    """A permutation generator was misused (bad skip offset, bad rank)."""


class CompletePermutationOverflow(PermutationError):
    """The complete permutation count exceeds the supported maximum.

    Mirrors the serial R implementation's behaviour: when ``B = 0`` requests
    complete enumeration but the total count exceeds the maximum allowed
    limit, the user is asked to explicitly request a smaller number of
    random permutations instead.
    """

    def __init__(self, count: int, limit: int):
        self.count = count
        self.limit = limit
        super().__init__(
            f"complete permutation count {count} exceeds the supported "
            f"limit {limit}; request a random sample by passing an explicit "
            f"B > 0 instead of B = 0"
        )


class CommunicatorError(ReproError, RuntimeError):
    """An MPI-substrate collective or point-to-point operation failed."""


class CommAbort(CommunicatorError):
    """A rank called ``abort`` — mirrors ``MPI_Abort`` semantics."""

    def __init__(self, rank: int, message: str = ""):
        self.rank = rank
        super().__init__(f"rank {rank} aborted: {message}")


class WorkerDeadError(CommunicatorError):
    """A specific worker rank died (killed, OOMed) while the world ran.

    Carries the dead rank so handlers with finer-grained recovery than
    "tear the whole pool down" — the work-stealing scheduler requeues the
    rank's in-flight blocks and finishes with the survivors — can act on
    it.  Handlers that don't care catch :class:`CommunicatorError` and
    get today's whole-pool respawn semantics unchanged.
    """

    def __init__(self, rank: int, message: str = ""):
        self.rank = rank
        super().__init__(f"worker rank {rank} died: {message}")


class ServiceError(ReproError, RuntimeError):
    """The service tier (:mod:`repro.serve`) was driven incorrectly.

    Examples: submitting to a closed :class:`~repro.serve.PoolManager`,
    or requesting an unknown job id over the HTTP front-end.
    """


class QueueFullError(ServiceError):
    """The admission queue is at capacity — backpressure the client.

    The service rejects new work instead of queueing unboundedly; HTTP
    clients see ``429 Too Many Requests`` and should retry later.
    """

    def __init__(self, depth: int, limit: int):
        self.depth = depth
        self.limit = limit
        super().__init__(
            f"admission queue is full ({depth} jobs queued, limit {limit}); "
            f"retry after the backlog drains"
        )


class SprintError(ReproError, RuntimeError):
    """The SPRINT framework layer was driven incorrectly.

    Examples: calling a parallel function before :func:`repro.sprint.init`,
    registering two functions under one name, or a worker receiving an
    unknown command.
    """


class ClusterModelError(ReproError, ValueError):
    """A cluster performance model was configured inconsistently."""
