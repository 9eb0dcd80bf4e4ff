"""A stub kept only so ``perfbench/common.py`` can record a kernel name.

Streaming deletion runs one eviction sweep, :func:`repro.core.pools.holding_dead`.
This module and perfbench's record of it go in ROADMAP item 1's
benchmark-only change.
"""

from types import SimpleNamespace

_SWEEP = SimpleNamespace(name="holding_dead")


def active_kernel() -> SimpleNamespace:
    """The one sweep, under the name perfbench records."""
    return _SWEEP
