"""E13 — the packed-word kernel against the big-int reference, end to end.

The step calls no kernel op (see :mod:`repro.core.kernels.base`); the
kernels differ only in the streaming retraction path's eviction sweep.  So
the question is **mutations**: an E12-style stream with interleaved
deletions and updates, replayed under each kernel — the delta maintainer's
event streams must match event by event (E13c).

Set ``REPRO_BENCH_SMOKE=1`` to shrink the workloads (used by the CI smoke
job).  Tables land in ``benchmarks/artifacts/BENCH_E13.json``.
"""

import os
import time

import pytest

from repro.core.kernels import numpy_available, use_kernel
from repro.service.delta import DeltaSummary, incremental_replay_stream
from repro.workloads.streaming import (
    ResultEvent,
    inject_mutations,
    streaming_star_workload,
)

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="the packed kernel needs NumPy"
)


@requires_numpy
def test_e13c_mutation_stream_parity(report_table):
    smoke = bool(os.environ.get("REPRO_BENCH_SMOKE"))
    arrivals = 6 if smoke else 9
    mutations = 3 if smoke else 5
    rows = []
    for batch_size in (1, 3):
        events = {}
        seconds = {}
        for kernel in ("bigint", "packed"):
            workload = streaming_star_workload(
                spokes=3, base_tuples=4, arrivals=arrivals, hub_domain=2, seed=2
            )
            ops = inject_mutations(workload, mutations, seed=5)
            with use_kernel(kernel):
                summary = DeltaSummary()
                started = time.perf_counter()
                drained = list(
                    incremental_replay_stream(
                        workload.database,
                        ops,
                        batch_size=batch_size,
                        use_index=True,
                        summary=summary,
                    )
                )
                seconds[kernel] = time.perf_counter() - started
            events[kernel] = [
                (
                    event.kind,
                    event.after_arrivals,
                    tuple(sorted((t.relation_name, t.label) for t in event.tuple_set)),
                )
                for event in drained
                if isinstance(event, ResultEvent)
            ]
        # Emission *and* retraction events match one for one, in order.
        assert events["bigint"] == events["packed"]
        rows.append(
            [
                f"batch={batch_size}",
                len(events["packed"]),
                f"{seconds['bigint']:.3f}",
                f"{seconds['packed']:.3f}",
                "identical",
            ]
        )
    report_table(
        "E13c: delta maintenance under deletions/updates per kernel "
        f"({arrivals} arrivals, {mutations} mutations)",
        ["stream", "events", "bigint (s)", "packed (s)", "event stream"],
        rows,
    )
