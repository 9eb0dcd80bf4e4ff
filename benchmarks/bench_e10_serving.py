"""E10 — the serving subsystem: first-k latency under concurrent clients.

Three questions about the query-serving layer (:mod:`repro.service`):

1. **Concurrency** — how does the latency until *every* client holds its
   first ``k`` answers grow with the client count, when the clients share
   one event loop through the server's ``SessionDriver``?
2. **Prefix caching** — how much of a cold run does the LRU prefix cache
   save a second wave of identical queries?  (The acceptance bar: warm
   first-k latency strictly below cold-run latency.)
3. **Streaming delta maintenance** — per-arrival work of the delta
   maintainer (each arrival seeds only its own singleton) against
   ``replay_stream``'s full recompute, by the machine-independent
   ``candidates_generated`` counter.  (The bar: sub-linear — strictly less
   work, here by an order of magnitude.)

Set ``REPRO_BENCH_SMOKE=1`` to restrict client counts and workload size
(used by the CI smoke job).
"""

import asyncio
import os
import time

from repro.core.full_disjunction import full_disjunction
from repro.service.cache import PrefixCache
from repro.service.delta import DeltaSummary, incremental_replay_stream
from repro.service.server import SessionDriver
from repro.workloads.generators import star_database
from repro.workloads.streaming import StreamSummary, replay_stream, streaming_star_workload

K = 10


def _first_k_latency(database, clients: int, cache: PrefixCache, k: int = K) -> float:
    """Seconds until every one of ``clients`` concurrent sessions holds ``k`` answers."""
    driver = SessionDriver()

    async def one_wave():
        sessions = [
            cache.open(database, "fd", name=f"c{i}")
            for i in range(clients)
        ]
        try:
            await asyncio.gather(*(driver.drive(s, k) for s in sessions))
        finally:
            for session in sessions:
                session.close()

    started = time.perf_counter()
    asyncio.run(one_wave())
    return time.perf_counter() - started


def test_e10a_first_k_latency_cold_vs_cached(benchmark, report_table):
    smoke = bool(os.environ.get("REPRO_BENCH_SMOKE"))
    spokes, per_relation = (4, 5) if smoke else (5, 6)
    client_counts = (1, 4) if smoke else (1, 2, 4, 8)
    database = star_database(
        spokes=spokes, tuples_per_relation=per_relation, hub_domain=2, seed=0
    )
    database.catalog()  # shared build; not charged to any wave

    rows = []
    for clients in client_counts:
        # Cold: a fresh cache — the first wave pays one full computation
        # (shared across its own clients).  Warm: the same cache again — the
        # prefix is materialized, so every client replays from memory.
        cache = PrefixCache()
        cold = min(
            _first_k_latency(database, clients, PrefixCache()),
            _first_k_latency(database, clients, cache),
        )
        warm = _first_k_latency(database, clients, cache)
        # The machine-independent version of the caching claim, asserted
        # always: across both waves exactly one computation ran — the warm
        # wave recomputed nothing.
        assert cache.stats()["misses"] == 1, cache.stats()
        assert cache.stats()["hits"] >= clients, cache.stats()
        if not smoke:
            # The wall-clock claim (cached below cold) is asserted outside
            # the CI smoke job only: at sub-10ms scale a shared runner's
            # scheduler hiccup could fail the build without a code defect.
            assert warm < cold, (
                f"cached first-{K} latency {warm:.4f}s not below cold "
                f"{cold:.4f}s at {clients} clients"
            )
        rows.append(
            [
                clients,
                K,
                f"{cold:.4f}",
                f"{warm:.4f}",
                f"{cold / warm:.1f}x",
                cache.stats()["hits"],
            ]
        )

    report_table(
        f"E10a: latency until every client holds its first {K} answers "
        f"({spokes}-spoke star, shared event loop)",
        ["clients", "k", "cold (s)", "cached (s)", "speedup", "cache hits"],
        rows,
    )

    benchmark(lambda: _first_k_latency(database, 2, PrefixCache(), k=5))


def test_e10b_streaming_delta_vs_full_recompute(report_table):
    smoke = bool(os.environ.get("REPRO_BENCH_SMOKE"))
    arrivals = 6 if smoke else 9
    rows = []
    for batch_size in (1, 3):
        replay_workload = streaming_star_workload(
            spokes=3, base_tuples=4, arrivals=arrivals, hub_domain=2, seed=2
        )
        delta_workload = streaming_star_workload(
            spokes=3, base_tuples=4, arrivals=arrivals, hub_domain=2, seed=2
        )

        replay_summary = StreamSummary()
        _, replay_seconds = _timed_drain(
            replay_stream(
                replay_workload.database,
                replay_workload.arrivals,
                batch_size=batch_size,
                summary=replay_summary,
            )
        )
        delta_summary = DeltaSummary()
        _, delta_seconds = _timed_drain(
            incremental_replay_stream(
                delta_workload.database,
                delta_workload.arrivals,
                batch_size=batch_size,
                summary=delta_summary,
            )
        )

        assert {_labels(ts) for ts in replay_summary.results} == {
            _labels(ts) for ts in delta_summary.results
        }
        replay_work = replay_summary.statistics.candidates_generated
        delta_work = delta_summary.statistics.candidates_generated
        # The acceptance bar: per-arrival work proportional to the delta,
        # not to the full (re)computation.
        assert delta_work < replay_work, (
            f"delta maintenance generated {delta_work} candidates, "
            f"full recompute {replay_work}"
        )
        per_batch = [batch["candidates_generated"] for batch in delta_summary.per_batch]
        rows.append(
            [
                batch_size,
                len(replay_summary.results),
                replay_work,
                delta_work,
                f"{replay_work / max(delta_work, 1):.1f}x",
                f"{replay_seconds:.4f}",
                f"{delta_seconds:.4f}",
                max(per_batch) if per_batch else 0,
            ]
        )

    report_table(
        f"E10b: streaming ingest, {arrivals} arrivals — delta maintenance vs "
        "full recompute (candidates generated)",
        ["batch", "|results|", "recompute cand.", "delta cand.", "work ratio",
         "recompute (s)", "delta (s)", "max cand./batch"],
        rows,
    )


def _labels(tuple_set):
    return frozenset(t.label for t in tuple_set)


def _timed_drain(events):
    started = time.perf_counter()
    drained = list(events)
    return drained, time.perf_counter() - started
