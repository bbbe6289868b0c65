"""The array-module compute-engine protocol.

An :class:`ArrayOps` engine owns the two batch-shaped pieces of the pmaxT
hot path:

* **permutation encoding** — a whole batch of keystream permutations is
  one raw-key call plus one (value-packed or device) sort, filled straight
  into the kernel's host ``int64`` encoding buffer
  (:meth:`ArrayOps.fill_encodings`);
* **statistic scoring** — the statistics' ``batch_operands`` /
  ``score_rows`` GEMMs and elementwise steps route through the engine's
  array namespace (:attr:`ArrayOps.xp`) and its buffer/constant adapters,
  so a device engine runs them on device arrays with ``out=`` fused calls
  (the whole matrix as one row block) while the numpy engine executes the
  *literally identical* NumPy calls the reference path always made.

Bit-identity contract: the raw 64-bit keys are always generated by the
counter-based Philox stream of :mod:`repro.permute.keystream` (fixed by
specification), and a batch of keys is unique with overwhelming
probability, so *any* correct sort produces the same permutation — the
encodings are bit-identical across engines.  The numpy engine is the
reference: its scoring path calls the same NumPy functions in the same
order as an engine-less run, so statistics and counts are bit-identical
to the seed implementation by construction.

Engines are *per-rank, single-threaded* state (they hold reusable sort
scratch): give each rank its own instance.  Under a persistent session
``pmaxT`` keeps one resident per rank via
:func:`~repro.mpi.session.resident_cache`, next to the kernel workspace.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

import numpy as np

__all__ = ["ArrayOps", "KeystreamSpec", "DEFAULT_ENGINE_BATCH"]

#: Default rows per engine super-batch: the kernel prefills this many
#: encodings per engine call so the sort pipeline amortises its per-call
#: setup, and device engines move host<->device data in blocks this big.
DEFAULT_ENGINE_BATCH: int = 4096


class KeystreamSpec:
    """What a fixed-seed random generator's keystream encodes.

    One frozen description of the permutation family — enough for any
    engine to reproduce encodings ``[start, start + count)`` from the
    Philox raw keys alone.

    Attributes
    ----------
    kind:
        ``"labels"`` (uniform relabellings), ``"signs"`` (fair sign
        vectors) or ``"blocks"`` (within-block shuffles).
    seed:
        The keystream seed.
    width:
        Encoding row width (``n`` columns or ``npairs``).
    labels:
        The observed label vector for ``kind="labels"`` (read-only int64).
    blocks:
        The ``(nblocks, k)`` block label layout for ``kind="blocks"``.
    """

    __slots__ = ("kind", "seed", "width", "labels", "blocks")

    def __init__(self, kind: str, seed: int, width: int,
                 labels: np.ndarray | None = None,
                 blocks: np.ndarray | None = None):
        self.kind = kind
        self.seed = int(seed)
        self.width = int(width)
        self.labels = labels
        self.blocks = blocks

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"KeystreamSpec(kind={self.kind!r}, seed={self.seed}, "
                f"width={self.width})")


class ArrayOps(ABC):
    """A pluggable array-module backend for the batched compute hot path.

    Subclasses bind one array library (NumPy, torch, CuPy).  The class is
    registered under :attr:`name` in :mod:`repro.accel`'s string-keyed
    registry; :func:`~repro.accel.resolve_engine` instantiates it on
    demand and raises :class:`~repro.errors.EngineUnavailableError` when
    the library is not importable.
    """

    #: Registry key (``engine="<name>"`` everywhere in the package).
    name: str = "?"
    #: True when :attr:`xp` arrays live off-host (scores need a copy back).
    is_device: bool = False

    def __init__(self, batch_rows: int | None = None):
        rows = DEFAULT_ENGINE_BATCH if batch_rows is None else int(batch_rows)
        if rows < 1:
            from ..errors import OptionError

            raise OptionError(
                f"engine_batch must be a positive row count, got {batch_rows}")
        #: Rows per engine super-batch (see :data:`DEFAULT_ENGINE_BATCH`).
        self.batch_rows = rows

    # -- availability ---------------------------------------------------------

    @classmethod
    def module_available(cls) -> bool:
        """Whether the engine's array module imports on this host."""
        return True

    @classmethod
    def device_available(cls) -> bool:
        """Whether the engine can place arrays on an accelerator device.

        ``engine="auto"`` prefers a device-backed engine; a module that
        imports but has no device (torch CPU wheels, say) still resolves
        explicitly by name.
        """
        return False

    # -- permutation encoding -------------------------------------------------

    def accelerates(self, spec: KeystreamSpec | None) -> bool:
        """Whether :meth:`fill_encodings` handles this keystream family."""
        if spec is None:
            return False
        if spec.kind == "blocks":
            return spec.blocks is not None and spec.blocks.shape[1] >= 2
        return spec.kind in ("labels", "signs")

    @abstractmethod
    def fill_encodings(self, spec: KeystreamSpec, start: int, count: int,
                       out: np.ndarray) -> None:
        """Write encodings for keystream indices ``[start, start + count)``.

        ``out`` is the caller's host ``(count, width)`` int64 view; the
        rows must be bit-identical to the reference
        :mod:`repro.permute.keystream` functions for the same indices.
        """

    # -- scoring adapters -----------------------------------------------------

    @property
    def xp(self) -> Any:
        """The array namespace the statistic kernels call into.

        For the numpy engine this is the :mod:`numpy` module itself, so
        the scoring arithmetic is the reference arithmetic, bit for bit.
        Device engines supply an adapter exposing the same call surface
        (``divide(a, b, out=)``, ``matmul``, ``errstate`` ...) over their
        library.
        """
        return np

    def empty(self, shape: tuple[int, ...], dtype) -> Any:
        """An uninitialised engine-native array (pool allocation hook)."""
        return self.xp.empty(shape, dtype=dtype)

    def constant(self, arr: np.ndarray) -> Any:
        """The engine-native mirror of a host constant array.

        Statistics call this (via ``work.constant``) on their prepared
        per-dataset arrays; device engines upload once and cache by
        identity, the numpy engine returns the array unchanged.
        """
        return arr

    def forget(self, arrays) -> None:
        """Drop cached mirrors of host arrays changed in place.

        Statistics call this after reordering their operand rows; the
        numpy engine keeps no mirrors.
        """

    def adopt_encodings(self, enc: np.ndarray) -> Any:
        """The engine-native operand for a host encoding batch."""
        return enc

    def device_array(self, arr: np.ndarray) -> Any:
        """An engine-native copy of a transient host array.

        Unlike :meth:`constant` this never caches — use it for one-shot
        operands (``pcor``'s standardized blocks, say) whose lifetime the
        engine must not extend.
        """
        return arr

    def to_host(self, arr: Any, out: np.ndarray | None = None) -> np.ndarray:
        """Copy an engine-native score matrix back to host memory."""
        if out is None:
            return arr
        if arr is not out:
            np.copyto(out, arr)
        return out

    def describe(self) -> dict:
        """A plain-dict summary for logs and benchmark records."""
        return {"engine": self.name, "device": self.is_device,
                "batch_rows": self.batch_rows}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(batch_rows={self.batch_rows})"
