"""E5 — block-based execution (Section 7).

The block-based variant fetches tuples a block at a time, which is how the
algorithm would live inside a query processor.  The answers are identical; the
experiment reports the simulated I/O requests (block fetches) against the
tuple-based execution, for growing block sizes.  Expected shape: I/O requests
fall roughly as 1/block-size while the produced result never changes.
"""

from repro.core.blocks import compare_block_sizes
from repro.workloads.generators import chain_database

BLOCK_SIZES = (None, 2, 8, 32, 128)


def test_e5_block_based_execution(benchmark, report_table):
    database = chain_database(
        relations=4, tuples_per_relation=20, domain_size=6, null_rate=0.1, seed=5
    )

    reports = compare_block_sizes(database, BLOCK_SIZES)
    baseline_io = reports[0].io_requests
    rows = []
    for report in reports:
        label = "tuple-based" if report.block_size is None else f"blocks of {report.block_size}"
        rows.append(
            [
                label,
                report.results,
                report.tuple_reads,
                report.io_requests,
                f"{baseline_io / report.io_requests:.1f}x",
                report.bucket_probes,
                report.full_scans,
            ]
        )
    assert len({report.results for report in reports}) == 1
    # The store-layer work is independent of the scan granularity.
    assert len({report.bucket_probes for report in reports}) == 1

    report_table(
        "E5: tuple-based vs. block-based execution on a chain workload "
        f"({database.tuple_count()} tuples)",
        ["execution", "results", "tuple reads", "simulated I/O requests",
         "I/O reduction", "bucket probes", "full scans"],
        rows,
    )

    from repro.core.blocks import block_based_full_disjunction

    benchmark(lambda: block_based_full_disjunction(database, 32))
