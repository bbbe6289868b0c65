"""SPRINT framework layer: master/worker dispatch of parallel functions.

Implements the architecture of paper Figure 1 — see
:mod:`repro.sprint.framework` for the command loop,
:mod:`repro.sprint.registry` for the parallel-function library and
:mod:`repro.sprint.session` for the user-facing session façade.

Two ways to run a SPRINT program:

* :class:`SprintSession` — the calling thread is the master; workers run on
  an in-process execution backend (``backend="threads"`` or ``"serial"``);
* :func:`run_sprint` — the whole program (master script + worker loops)
  runs inside any registered backend's world, including the fork-based
  ``"shm"`` backend.
"""

from .framework import MasterHandle, SprintFramework, run_sprint
from .registry import FunctionRegistry, default_registry
from .session import SprintSession

__all__ = [
    "SprintFramework",
    "MasterHandle",
    "run_sprint",
    "FunctionRegistry",
    "default_registry",
    "SprintSession",
]
