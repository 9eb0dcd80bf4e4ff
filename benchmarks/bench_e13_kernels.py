"""E13 — the packed-word kernel layer vs the big-int reference.

Three questions about the vectorized inner loops of
:mod:`repro.core.kernels`:

1. **Hot-path micro** — on an E6-style anchor bucket, how much faster is
   the packed kernel's whole-bucket subsumption probe
   (``batch_contains_superset``) than the per-candidate big-int loop?
   (The acceptance bar: ≥10x with a warm group matrix.)  The Line-14
   first-match merge probe and the retraction liveness sweep ride along.
2. **End-to-end** — the E1/E6 ``sets_scanned``-dominated driver configs
   under each kernel: wall time plus the guarantee that the emitted,
   *ordered* result streams are byte-identical.
3. **Mutations** — an E12-style stream with interleaved deletions and
   updates, replayed under each kernel: the delta maintainer's event
   streams must match event by event.

Set ``REPRO_BENCH_SMOKE=1`` to shrink the workloads (used by the CI smoke
job).  Tables land in ``benchmarks/artifacts/BENCH_E13.json``.
"""

import os
import random
import time

import pytest

from repro.core.full_disjunction import full_disjunction
from repro.core.kernels import numpy_available, use_kernel
from repro.core.kernels.bigint import BigintKernel
from repro.core.tupleset import TupleSet
from repro.service.delta import DeltaSummary, incremental_replay_stream
from repro.workloads.generators import chain_database, star_database
from repro.workloads.streaming import (
    ResultEvent,
    inject_mutations,
    streaming_star_workload,
)

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="the packed kernel needs NumPy"
)


def _ordered_stream(results):
    """The emitted stream as an ordered, canonical label sequence."""
    return [
        tuple(sorted((t.relation_name, t.label) for t in ts)) for ts in results
    ]


def _probe_workload():
    """A ``sets_scanned``-dominated E1-style anchor bucket.

    ``star 5x8`` produces ~1.5k stored result sets behind one anchor — the
    regime the whole-bucket probe is built for.  Half the probes are real
    subsets of a stored set (the big-int loop early-breaks), half are
    random 4-tuple sets that almost surely miss (the loop scans the whole
    bucket) — together they exercise both sides of the ``sets_scanned``
    early-break emulation.
    """
    database = star_database(spokes=5, tuples_per_relation=8, hub_domain=2, seed=4)
    catalog = database.catalog()
    results = full_disjunction(database, use_index=True)
    group = [TupleSet(ts.tuples, catalog=catalog) for ts in results]
    rng = random.Random(13)
    all_sorted = sorted(
        database.tuples(), key=lambda t: (t.relation_name, t.label)
    )
    probes = []
    for _ in range(16):
        donor = rng.choice(group)
        members = rng.sample(
            sorted(donor.tuples, key=lambda t: (t.relation_name, t.label)),
            rng.randint(1, len(donor)),
        )
        probes.append(TupleSet(members, catalog=catalog))
        probes.append(TupleSet(rng.sample(all_sorted, 4), catalog=catalog))
    return database, catalog, group, probes


def _best_of(repeats, loops, call):
    """Min-of-``repeats`` wall time of ``loops`` calls (warmup included)."""
    call()
    best = None
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(loops):
            call()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best


def _forced_vectorized(kernel):
    """Zero the small-batch cutoffs so every call takes the NumPy path.

    The production defaults delegate the Line-14 merge probe and the
    tombstone sweep to the big-int reference (it won those at every
    measured size); the forced instance measures *why* — the table shows
    the vectorized path losing on ops without an amortizable matrix.
    """
    for attr in (
        "MIN_GROUP", "MIN_WAITING", "MIN_TOMBSTONED", "MIN_DEAD",
    ):
        setattr(kernel, attr, 0)
    return kernel


@requires_numpy
def test_e13a_packed_probe_micro(benchmark, report_table):
    from repro.core.kernels.packed import PackedKernel

    smoke = bool(os.environ.get("REPRO_BENCH_SMOKE"))
    database, catalog, group, probes = _probe_workload()
    reference, packed = BigintKernel(), PackedKernel()
    vectorized = _forced_vectorized(PackedKernel())
    cache = {}
    loops = 5 if smoke else 20

    want = reference.batch_contains_superset(group, probes)
    got = packed.batch_contains_superset(group, probes, cache=cache, cache_key="g")
    assert got[0] == want[0] and got[1] == want[1]

    bigint_probe = _best_of(3, loops, lambda: reference.batch_contains_superset(group, probes))
    packed_probe = _best_of(
        3, loops,
        lambda: packed.batch_contains_superset(group, probes, cache=cache, cache_key="g"),
    )
    probe_speedup = bigint_probe / packed_probe

    # Line-14 first-match merge probe on the same sets.  The production
    # packed kernel delegates this op (MIN_WAITING is inf) because the
    # big-int loop's early break beats array setup at every size — the
    # forced-vectorized timing documents that regime.
    waiting, candidate = group[:-1], group[-1]
    assert vectorized.first_jcc_union(waiting, candidate) == reference.first_jcc_union(
        waiting, candidate
    )
    bigint_merge = _best_of(3, loops, lambda: reference.first_jcc_union(waiting, candidate))
    packed_merge = _best_of(3, loops, lambda: vectorized.first_jcc_union(waiting, candidate))

    # Retraction liveness sweep after a real tombstone — likewise delegated
    # in production (one big-int AND per set is already optimal).
    victim = sorted(group[0].tuples, key=lambda t: (t.relation_name, t.label))[0]
    database.remove_tuple(victim.relation_name, victim.label)
    assert vectorized.batch_contains_tombstoned(group, catalog) == (
        reference.batch_contains_tombstoned(group, catalog)
    )
    bigint_sweep = _best_of(3, loops, lambda: reference.batch_contains_tombstoned(group, catalog))
    packed_sweep = _best_of(3, loops, lambda: vectorized.batch_contains_tombstoned(group, catalog))

    report_table(
        f"E13a: kernel micro-benchmarks ({len(group)} stored sets, "
        f"{len(probes)} probes, best of 3 x {loops} calls)",
        ["operation", "bigint (s)", "packed (s)", "speedup"],
        [
            [
                "batch_contains_superset (warm bucket)",
                f"{bigint_probe:.5f}",
                f"{packed_probe:.5f}",
                f"{probe_speedup:.1f}x",
            ],
            [
                "first_jcc_union (forced vectorized; prod delegates)",
                f"{bigint_merge:.5f}",
                f"{packed_merge:.5f}",
                f"{bigint_merge / packed_merge:.1f}x",
            ],
            [
                "batch_contains_tombstoned (forced vectorized; prod delegates)",
                f"{bigint_sweep:.5f}",
                f"{packed_sweep:.5f}",
                f"{bigint_sweep / packed_sweep:.1f}x",
            ],
        ],
    )

    # The tentpole's acceptance bar: ≥10x on the sets_scanned-dominated
    # whole-bucket probe once the packed group matrix is warm.
    assert probe_speedup >= 10, f"packed probe speedup only {probe_speedup:.1f}x"

    benchmark(
        lambda: packed.batch_contains_superset(group, probes, cache=cache, cache_key="g")
    )


@requires_numpy
def test_e13b_end_to_end_streams_are_identical(report_table):
    smoke = bool(os.environ.get("REPRO_BENCH_SMOKE"))
    workloads = [
        (
            "star 3x6",
            star_database(spokes=3, tuples_per_relation=6, hub_domain=2, seed=4),
        ),
        (
            "chain 4x8",
            chain_database(
                relations=4, tuples_per_relation=8, domain_size=3,
                null_rate=0.2, seed=7,
            ),
        ),
    ]
    if not smoke:
        workloads.append(
            (
                "star 4x6",
                star_database(spokes=4, tuples_per_relation=6, hub_domain=2, seed=4),
            )
        )
    rows = []
    for name, database in workloads:
        streams = {}
        seconds = {}
        for kernel in ("bigint", "packed"):
            with use_kernel(kernel):
                started = time.perf_counter()
                results = full_disjunction(database, use_index=True, backend="batched")
                seconds[kernel] = time.perf_counter() - started
                streams[kernel] = _ordered_stream(results)
        # Byte-identical ordered result streams, not merely equal sets.
        assert streams["bigint"] == streams["packed"]
        rows.append(
            [
                name,
                len(streams["packed"]),
                f"{seconds['bigint']:.3f}",
                f"{seconds['packed']:.3f}",
                f"{seconds['bigint'] / seconds['packed']:.2f}x",
                "identical",
            ]
        )
    report_table(
        "E13b: full-disjunction driver per kernel (batched backend, indexed store)",
        ["workload", "|FD|", "bigint (s)", "packed (s)", "speedup", "ordered stream"],
        rows,
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
