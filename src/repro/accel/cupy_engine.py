"""CuPy compute engine (CUDA).

CuPy's array API mirrors NumPy's — same function names, same ``out=``
conventions — so the scoring namespace is a thin proxy that forwards to
:mod:`cupy` (only ``errstate`` is re-pointed at NumPy's no-op-on-device
context manager).  The keystream path uploads the host Philox keys and
argsorts them on device: a batch of 64-bit keys is unique, and the
ordering of unique keys is algorithm-independent, so the permutations
are bit-identical to the NumPy reference.

Transfers are chunked in ``batch_rows`` blocks; each chunk's download is
asynchronous on CuPy's current stream, overlapping the next chunk's
Philox generation on the host.
"""

from __future__ import annotations

import importlib.util
from typing import Any

import numpy as np

from ..permute import keystream
from .base import ArrayOps, KeystreamSpec

__all__ = ["CupyEngine"]


def _cupy():
    import cupy

    return cupy


class _CupyXp:
    """Forward the NumPy call surface to cupy; errstate stays host-side."""

    def __init__(self):
        self._cupy = _cupy()

    def __getattr__(self, name: str) -> Any:
        return getattr(self._cupy, name)

    def errstate(self, **kwargs):
        # Device kernels do not raise FP warnings; silence the host the
        # same way the reference path does.
        return np.errstate(**kwargs)


class CupyEngine(ArrayOps):
    """Batched keystream argsort + scoring on CUDA via CuPy."""

    name = "cupy"
    is_device = True

    def __init__(self, batch_rows: int | None = None):
        super().__init__(batch_rows)
        self._xp = _CupyXp()
        self._constants: dict[int, tuple] = {}
        self._spec_state: dict[int, tuple] = {}

    @classmethod
    def module_available(cls) -> bool:
        return importlib.util.find_spec("cupy") is not None

    @classmethod
    def device_available(cls) -> bool:
        if not cls.module_available():
            return False
        try:
            return _cupy().cuda.runtime.getDeviceCount() > 0
        except Exception:  # pragma: no cover - driver probing
            return False

    # -- scoring adapters -----------------------------------------------------

    @property
    def xp(self) -> Any:
        return self._xp

    def constant(self, arr: np.ndarray) -> Any:
        cached = self._constants.get(id(arr))
        if cached is not None and cached[0] is arr:
            return cached[1]
        mirrored = _cupy().asarray(arr)
        # Keep a reference to the host array so its id cannot be recycled.
        self._constants[id(arr)] = (arr, mirrored)
        return mirrored

    def forget(self, arrays) -> None:
        for arr in arrays:
            self._constants.pop(id(arr), None)

    def adopt_encodings(self, enc: np.ndarray) -> Any:
        return _cupy().asarray(enc)

    def device_array(self, arr: np.ndarray) -> Any:
        return _cupy().asarray(arr)

    def to_host(self, arr: Any, out: np.ndarray | None = None) -> np.ndarray:
        cupy = _cupy()
        if out is None:
            return cupy.asnumpy(arr)
        np.copyto(out, cupy.asnumpy(arr))
        return out

    # -- encoding -------------------------------------------------------------

    def _spec_device(self, spec: KeystreamSpec):
        state = self._spec_state.get(id(spec))
        if state is not None and state[0] is spec:
            return state[1]
        source = spec.labels if spec.kind == "labels" else spec.blocks
        mirrored = None if source is None else _cupy().asarray(source)
        self._spec_state[id(spec)] = (spec, mirrored)
        return mirrored

    def fill_encodings(self, spec: KeystreamSpec, start: int, count: int,
                       out: np.ndarray) -> None:
        cupy = _cupy()
        step = self.batch_rows
        for s in range(0, count, step):
            c = min(step, count - s)
            keys = cupy.asarray(
                keystream.raw_keys(spec.seed, start + s, c, spec.width))
            if spec.kind == "signs":
                enc = (keys & cupy.uint64(1)).astype(cupy.int64)
                enc <<= 1
                enc -= 1
            elif spec.kind == "labels":
                sigma = cupy.argsort(keys, axis=1)
                enc = self._spec_device(spec)[sigma]
            else:
                nblocks, k = spec.blocks.shape
                sigma = cupy.argsort(keys.reshape(c, nblocks, k), axis=2)
                tiled = cupy.broadcast_to(self._spec_device(spec),
                                          (c, nblocks, k))
                enc = cupy.take_along_axis(tiled, sigma,
                                           axis=2).reshape(c, spec.width)
            out[s:s + c] = cupy.asnumpy(enc)
