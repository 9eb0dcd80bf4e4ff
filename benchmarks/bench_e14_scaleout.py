"""E14 — bucket-grained work stealing in the sharded execution backend.

**Pass latency** — on a skewed fixture (one hot relation dominating the
work), how long does the bucket-grained schedule of
:class:`~repro.exec.sharded.ShardedBackend` take at 1/2/4 workers, next to
the in-process serial schedule?  The acceptance bar: the serial answer set,
with byte-identical result streams *and* ``sets_scanned`` statistics across
worker counts.  The timings are reported, not asserted: whether the
process pool pays for itself depends on the host.

Set ``REPRO_BENCH_SMOKE=1`` to shrink the workloads (used by the CI smoke
job).  Tables land in ``benchmarks/artifacts/BENCH_E14.json``.
"""

import os
import time

from repro.core.incremental import FDStatistics
from repro.exec import SerialBackend, ShardedBackend, shutdown_pools
from repro.workloads.generators import skewed_chain_database

WORKER_COUNTS = (1, 2, 4)


def _skewed_fixture(smoke):
    if smoke:
        return skewed_chain_database(
            relations=4, tuples_per_relation=6, hot_relation=2, hot_factor=6,
            domain_size=4, null_rate=0.1, seed=0,
        )
    return skewed_chain_database(
        relations=4, tuples_per_relation=10, hot_relation=2, hot_factor=8,
        domain_size=4, null_rate=0.1, seed=0,
    )


def _keyed_stream(results):
    return [
        tuple(sorted((t.relation_name, t.label) for t in ts)) for ts in results
    ]


def _timed_run(backend, database, repeats):
    """Best-of-``repeats`` wall time; returns (seconds, stream, stats dict)."""
    best = None
    stream = stats = None
    for _ in range(repeats):
        statistics = FDStatistics()
        started = time.perf_counter()
        results = list(
            backend.run_singleton_passes(
                database, use_index=True, statistics=statistics
            )
        )
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
        stream = _keyed_stream(results)
        stats = statistics.as_dict()
    return best, stream, stats


def test_e14a_bucket_range_latency(report_table):
    smoke = bool(os.environ.get("REPRO_BENCH_SMOKE"))
    repeats = 2 if smoke else 3
    database = _skewed_fixture(smoke)
    database.catalog()
    sizes = "/".join(str(len(relation)) for relation in database.relations)

    serial_s, serial_stream, _ = _timed_run(SerialBackend(), database, repeats)
    rows = [["serial", len(serial_stream), f"{serial_s:.3f}", "1.00x"]]
    bucket_streams, bucket_stats = {}, {}
    try:
        for workers in WORKER_COUNTS:
            bucket_s, bucket_stream, stats = _timed_run(
                ShardedBackend(max_workers=workers), database, repeats
            )
            bucket_streams[workers] = bucket_stream
            bucket_stats[workers] = stats
            # Same members as serial; bucket ranges reorder within a pass.
            assert set(bucket_stream) == set(serial_stream)
            assert len(bucket_stream) == len(serial_stream)
            rows.append(
                [
                    f"sharded:{workers}",
                    len(bucket_stream),
                    f"{bucket_s:.3f}",
                    f"{serial_s / bucket_s:.2f}x",
                ]
            )
    finally:
        shutdown_pools()

    # Byte-identical streams and statistics across every worker count —
    # scheduling must never leak into results or sets_scanned.
    reference = bucket_streams[WORKER_COUNTS[0]]
    reference_stats = bucket_stats[WORKER_COUNTS[0]]
    for workers in WORKER_COUNTS[1:]:
        assert bucket_streams[workers] == reference
        assert bucket_stats[workers] == reference_stats
    scanned = {
        key: value
        for key, value in reference_stats.items()
        if key.endswith("sets_scanned")
    }
    assert scanned, "sets_scanned extras missing from the merged statistics"

    report_table(
        f"E14a: bucket-range pass latency (skewed chain {sizes}, "
        f"best of {repeats}; streams+stats identical across worker counts; "
        f"sets_scanned={scanned})",
        ["backend", "|FD|", "seconds", "speedup vs serial"],
        rows,
    )

