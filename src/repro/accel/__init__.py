"""Kept only for ``perfbench/replay.py``, which imports ``resolve_engine``.

Scoring is plain NumPy and permutation batches are filled by the
value-packed sort of :mod:`repro.permute.keystream`; there is no engine to
choose.  Delete this module with the replay rewrite.
"""

from __future__ import annotations

__all__ = ["resolve_engine"]


def resolve_engine(spec=None) -> None:
    """Return ``None`` whatever ``spec`` is (no-op; see the module docstring)."""
    return None
