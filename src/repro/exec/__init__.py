"""Pluggable execution backends for the full-disjunction engines.

The algorithms (:mod:`repro.core`) define *what* is computed; an
:class:`~repro.exec.base.ExecutionBackend` defines *how* the work is
scheduled.  Two backends ship:

``serial``
    The paper's reference execution — one ``GetNextResult`` step at a time,
    one pass after another (:class:`~repro.exec.serial.SerialBackend`).
``sharded``
    Anchor-bucket ranges of the exact passes (and whole approximate passes)
    fan out to a process pool through a shared work-stealing queue; results
    and statistics merge deterministically regardless of worker count or
    steal order (:class:`~repro.exec.sharded.ShardedBackend`).  Accepts a
    worker count: ``"sharded:4"``.

Both run the same step, :func:`repro.core.incremental.get_next_result`, for
both join semantics.  Every engine entry point takes a ``backend`` argument
resolved by :func:`resolve_backend`, so new schedules are new backends, not
engine rewrites.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.exec.base import ExecutionBackend
from repro.exec.serial import SerialBackend
from repro.exec.sharded import ShardedBackend, plan_bucket_ranges, shutdown_pools

__all__ = [
    "BACKENDS",
    "ExecutionBackend",
    "SerialBackend",
    "ShardedBackend",
    "plan_bucket_ranges",
    "resolve_backend",
    "shutdown_pools",
]

#: The backend names accepted by :func:`resolve_backend` (and the CLI).
BACKENDS = ("serial", "sharded")

#: Anything an engine's ``backend`` argument accepts.
BackendSpec = Union[None, str, ExecutionBackend]

_DEFAULT_WORKERS = 2


def resolve_backend(
    spec: BackendSpec = None, workers: Optional[int] = None
) -> ExecutionBackend:
    """Resolve a backend argument to an :class:`ExecutionBackend` instance.

    ``spec`` may be ``None`` (the serial reference execution), an existing
    backend instance (returned unchanged), or a name: ``"serial"`` or
    ``"sharded"``.  The sharded worker count can ride along as
    ``"sharded:4"`` or through the ``workers`` argument (the suffix wins).
    """
    if spec is None:
        return SerialBackend()
    if isinstance(spec, ExecutionBackend):
        return spec
    name, _, suffix = str(spec).partition(":")
    if name not in BACKENDS:
        raise ValueError(
            f"unknown execution backend {name!r}; expected one of {BACKENDS}"
        )
    if suffix:
        try:
            workers = int(suffix)
        except ValueError:
            raise ValueError(
                f"invalid worker count {suffix!r} in backend spec {spec!r}"
            ) from None
    if workers is not None and workers < 1:
        raise ValueError(f"worker count must be positive, got {workers}")
    if name == "sharded":
        return ShardedBackend(
            max_workers=_DEFAULT_WORKERS if workers is None else workers
        )
    if workers is not None:
        # A worker count on the in-process backend would be a silent no-op;
        # make the misconfiguration visible instead.
        raise ValueError(
            f"backend {name!r} runs in-process and takes no worker count"
        )
    return SerialBackend()
