"""Kernel selection: ``REPRO_KERNEL={bigint,packed}`` with NumPy gating.

The streaming retraction path's eviction sweep runs through one
process-wide :class:`~repro.core.kernels.base.Kernel`, and every run tags
its statistics with the active kernel's name (:func:`tag_kernel`):

* ``bigint`` — the executable reference: per-set Python loops
  (:mod:`repro.core.kernels.bigint`);
* ``packed`` — vectorized batches over NumPy ``uint64`` packed-word arrays
  (:mod:`repro.core.kernels.packed`).

Selection order: an explicit :func:`set_kernel`/:func:`use_kernel` override,
then the ``REPRO_KERNEL`` environment variable, then the default — ``packed``
when NumPy is importable, ``bigint`` otherwise.  Requesting ``packed``
without NumPy warns once and falls back to ``bigint``; NumPy itself is an
optional extra (``pip install repro[fast]``).  Resolution is lazy and
cached; worker processes of the sharded backend pin their kernel explicitly
to the parent's choice, and re-resolve from the environment otherwise.

Both kernels are observationally identical (see the parity contract in
:mod:`repro.core.kernels.base`), so the switch is a performance choice,
never a correctness one — exactly like the execution-backend switch.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from typing import Optional

from repro.core.kernels.base import Kernel
from repro.core.kernels.bigint import BigintKernel

__all__ = [
    "KERNELS",
    "Kernel",
    "BigintKernel",
    "numpy_available",
    "resolve_kernel",
    "active_kernel",
    "set_kernel",
    "use_kernel",
    "tag_kernel",
]

#: The selectable kernel names, reference first.
KERNELS = ("bigint", "packed")

_active: Optional[Kernel] = None
_requested: Optional[str] = None
_numpy_checked: Optional[bool] = None


def numpy_available() -> bool:
    """Whether NumPy can be imported (cached after the first attempt)."""
    global _numpy_checked
    if _numpy_checked is None:
        try:
            import numpy  # noqa: F401
        except Exception:
            _numpy_checked = False
        else:
            _numpy_checked = True
    return _numpy_checked


def _build(name: str) -> Kernel:
    if name == "packed":
        from repro.core.kernels.packed import PackedKernel

        return PackedKernel()
    return BigintKernel()


def resolve_kernel(spec: Optional[str] = None) -> Kernel:
    """Build the kernel for ``spec`` (or the override/environment/default).

    Raises ``ValueError`` for an unknown name; warns and degrades to the
    big-int reference when ``packed`` is requested without NumPy.
    """
    name = spec or _requested or os.environ.get("REPRO_KERNEL") or ""
    if not name:
        name = "packed" if numpy_available() else "bigint"
    if name not in KERNELS:
        raise ValueError(f"unknown kernel {name!r}; expected one of {KERNELS}")
    if name == "packed" and not numpy_available():
        warnings.warn(
            "the packed kernel requires NumPy (pip install repro[fast]); "
            "falling back to the big-int reference kernel",
            RuntimeWarning,
            stacklevel=2,
        )
        name = "bigint"
    return _build(name)


def active_kernel() -> Kernel:
    """The process-wide kernel, resolved lazily and cached."""
    global _active
    if _active is None:
        _active = resolve_kernel()
    return _active


def set_kernel(spec: Optional[str] = None) -> Kernel:
    """Pin the process-wide kernel (``None`` re-resolves from the environment)."""
    global _active, _requested
    _requested = spec
    _active = resolve_kernel(spec)
    return _active


@contextmanager
def use_kernel(spec: Optional[str]):
    """Temporarily run under another kernel (tests and benchmarks)."""
    global _active, _requested
    saved_active, saved_requested = _active, _requested
    try:
        yield set_kernel(spec)
    finally:
        _active, _requested = saved_active, saved_requested


def tag_kernel(statistics) -> None:
    """Record the active kernel in ``FDStatistics.extras`` (parity smokes read it)."""
    if statistics is not None:
        statistics.extras["kernel"] = active_kernel().name
