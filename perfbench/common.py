"""Helpers shared by the workload runners: environment, statistics, output."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import sys
import time
from typing import Dict, List, Optional, Sequence

#: Settings that change which code the engine runs; a benchmark run refuses
#: them so every result measures the defaults.
PINNED_VARIABLES = (
    "REPRO_KERNEL",
    "REPRO_MMAP",
    "REPRO_MMAP_THRESHOLD",
    "REPRO_METRICS",
    "REPRO_PROFILE",
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")


class SetupError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def check_environment() -> None:
    pinned = [name for name in PINNED_VARIABLES if name in os.environ]
    if pinned:
        raise SetupError(
            f"unset {', '.join(pinned)}: the benchmark measures the default kernel "
            "and backing only"
        )
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        raise SetupError(f"no program source under {SOURCE}")
    if SOURCE not in sys.path:
        sys.path.insert(0, SOURCE)


def git_revision() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown"


def environment(seed: int) -> dict:
    from repro.core.kernels import active_kernel

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "kernel": active_kernel().name,
        "numpy": numpy_version,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "revision": git_revision(),
        "source": source_digest(),
        "seed": seed,
    }


def source_digest() -> str:
    """SHA-256 over the program's source files, for checkouts without ``.git``."""
    digest = hashlib.sha256()
    for directory, subdirectories, files in sorted(os.walk(SOURCE)):
        subdirectories.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SOURCE).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """``VmHWM`` of a live process, in MiB (own process by default)."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise SetupError(f"no VmHWM in {path}")


#: What the reference takes on this kind of host in its fast periods (a
#: 2-vCPU Xeon VM: 22-33 ms), at ``REFERENCE_ROUNDS`` rounds.
REFERENCE_SECONDS = 0.022
REFERENCE_ROUNDS = 12_000


class _Record:
    __slots__ = ("label", "values", "members")

    def __init__(self, label, values, members):
        self.label = label
        self.values = values
        self.members = members


def reference_seconds(rounds: int = REFERENCE_ROUNDS) -> float:
    """Wall time of a fixed piece of object churn: the host's speed right now.

    Small objects, tuples, strings, frozensets and a dict of short lists,
    the program's own mix, written here so that no change to the program
    changes it.
    """
    started = time.perf_counter()
    index: Dict[int, list] = {}
    kept = []
    for i in range(rounds):
        members = frozenset((i % 101, (i * 7) % 103, (i * 13) % 107))
        record = _Record(f"t{i % 500}", (i % 17, i % 19), members)
        bucket = index.setdefault(i % 211, [])
        bucket.append(record)
        if len(bucket) > 4:
            bucket.pop(0)
        kept.append(record.members | {i % 5})
    return time.perf_counter() - started


class HostSpeed:
    """Scales times measured on a shared host to one fixed host speed.

    The host's speed drifts by 20-60% over periods of a few seconds, far
    more than a run's own noise.  Of the pure-Python loops tried (arithmetic,
    scattered reads of a large buffer, ``list.count`` through a Python
    ``__eq__``, object churn), object churn slows down most like the
    program does.  So every piece of timed work sits between two timings of
    :func:`reference_seconds`, and its times are multiplied by
    ``REFERENCE_SECONDS`` over their mean: seconds as they would read while
    the host runs the reference in ``REFERENCE_SECONDS``.
    """

    def __init__(self):
        self.factors: List[float] = []
        self.mark()

    def mark(self) -> None:
        """Time the reference before the next piece of work."""
        self._before = reference_seconds()

    def scale(self) -> float:
        """The factor for the work since the last call (or :meth:`mark`)."""
        after = reference_seconds()
        factor = speed_factor((self._before + after) / 2)
        self._before = after
        self.factors.append(factor)
        return factor


def speed_factor(reference: float, rounds: int = REFERENCE_ROUNDS) -> float:
    """What to multiply times by, given a reference timing of ``rounds`` rounds."""
    return REFERENCE_SECONDS * rounds / REFERENCE_ROUNDS / reference


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values)


def percentile(values: Sequence[float], fraction: float) -> float:
    """The nearest-rank percentile; callers make sure the tail holds 10 samples."""
    ordered = sorted(values)
    rank = max(1, int(-(-fraction * len(ordered) // 1)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_ok(values: Sequence[float], fraction: float) -> bool:
    """At least ten samples lie beyond the ``fraction`` percentile."""
    return len(values) * (1.0 - fraction) >= 10


def emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, tuple],
         notes: List[str], env: dict) -> None:
    """Print the human table, then the one-line JSON result last."""
    for note in notes:
        print(note)
    print("env " + json.dumps(env, sort_keys=True))
    width = max((len(name) for name in metrics), default=0)
    for name, (value, unit) in metrics.items():
        print(f"  {name.ljust(width)}  {value:.6g} {unit}")
    error_rate = failed / attempted if attempted else 1.0
    print(f"  {'error_rate'.ljust(width)}  {error_rate:.6g} ({failed}/{attempted})")
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    sys.stdout.flush()
