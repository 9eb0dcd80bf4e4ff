"""Cross-backend equivalence: serial, batched and sharded schedules.

In the style of ``tests/core/test_tupleset_equivalence.py``: the execution
backends must be observationally identical to the serial reference on
randomized workloads — identical result *sets* everywhere, and identical
result *order* for the ordered drivers (the batched step is exactly
order-equivalent, and the sharded merge is deterministic in relation order).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.naive import naive_full_disjunction
from repro.core.approx import approx_full_disjunction
from repro.core.approx_join import ExactMatchSimilarity, MinJoin
from repro.core.full_disjunction import first_k, full_disjunction
from repro.core.incremental import FDStatistics, incremental_fd
from repro.core.kernels import numpy_available, use_kernel
from repro.core.priority import priority_incremental_fd
from repro.core.ranked_approx import ranked_approx_full_disjunction
from repro.core.ranking import MaxRanking
from repro.exec import (
    BACKENDS,
    AsyncBackend,
    BatchedBackend,
    ExecutionBackend,
    SerialBackend,
    ShardedBackend,
    resolve_backend,
)
from repro.workloads.generators import (
    chain_database,
    random_database,
    skewed_chain_database,
    star_database,
)
from repro.workloads.tourist import tourist_database


def _workloads():
    yield "tourist", tourist_database()
    yield "chain", chain_database(
        relations=3, tuples_per_relation=5, domain_size=3, null_rate=0.2, seed=7
    )
    yield "star", star_database(spokes=3, tuples_per_relation=4, hub_domain=2, seed=11)
    for seed in (0, 1, 2):
        yield f"random-{seed}", random_database(
            relations=3,
            attributes=5,
            arity=3,
            tuples_per_relation=4,
            domain_size=2,
            null_rate=0.25,
            seed=seed,
        )


WORKLOADS = list(_workloads())
WORKLOAD_IDS = [name for name, _ in WORKLOADS]

#: The in-process step-for-step backends: every single-run sequence must be
#: identical to serial (the async backend inherits the batched step).
STEP_BACKENDS = ("batched", "async")


def _labelled(results):
    return [ts.labels() for ts in results]


class TestResolveBackend:
    def test_none_is_serial(self):
        assert isinstance(resolve_backend(None), SerialBackend)

    def test_names_resolve(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("batched"), BatchedBackend)
        assert isinstance(resolve_backend("sharded"), ShardedBackend)

    def test_instances_pass_through(self):
        backend = BatchedBackend()
        assert resolve_backend(backend) is backend

    def test_sharded_worker_suffix(self):
        backend = resolve_backend("sharded:5")
        assert backend.max_workers == 5

    def test_workers_argument(self):
        assert resolve_backend("sharded", workers=3).max_workers == 3
        # The suffix wins over the argument.
        assert resolve_backend("sharded:4", workers=3).max_workers == 4

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            resolve_backend("quantum")

    def test_async_resolves(self):
        assert isinstance(resolve_backend("async"), AsyncBackend)
        assert isinstance(resolve_backend("asyncio"), AsyncBackend)

    def test_worker_count_on_in_process_backends_is_rejected(self):
        with pytest.raises(ValueError, match="no worker count"):
            resolve_backend("batched", workers=8)
        with pytest.raises(ValueError, match="no worker count"):
            resolve_backend("serial:4")

    def test_bad_worker_suffix_raises(self):
        with pytest.raises(ValueError, match="invalid worker count"):
            resolve_backend("sharded:many")

    def test_every_advertised_backend_resolves(self):
        for name in BACKENDS:
            assert isinstance(resolve_backend(name), ExecutionBackend)


@pytest.mark.parametrize("backend", STEP_BACKENDS)
@pytest.mark.parametrize("name,database", WORKLOADS, ids=WORKLOAD_IDS)
@pytest.mark.parametrize("use_index", [False, True], ids=["plain", "indexed"])
def test_batched_full_disjunction_is_order_identical(name, database, use_index, backend):
    serial = full_disjunction(database, use_index=use_index, backend="serial")
    batched = full_disjunction(database, use_index=use_index, backend=backend)
    assert _labelled(serial) == _labelled(batched)


@pytest.mark.parametrize("backend", STEP_BACKENDS)
@pytest.mark.parametrize("name,database", WORKLOADS, ids=WORKLOAD_IDS)
def test_batched_incremental_fd_pass_is_order_identical(name, database, backend):
    anchor = database.relation_names[0]
    serial = list(incremental_fd(database, anchor, use_index=True))
    batched = list(
        incremental_fd(database, anchor, use_index=True, backend=backend)
    )
    assert _labelled(serial) == _labelled(batched)


@pytest.mark.parametrize("backend", STEP_BACKENDS)
@pytest.mark.parametrize(
    "initialization", ["previous-results", "reduced-previous"]
)
def test_batched_reuse_strategies_match_serial(initialization, backend):
    database = chain_database(
        relations=3, tuples_per_relation=5, domain_size=3, null_rate=0.2, seed=7
    )
    serial = full_disjunction(
        database, use_index=True, initialization=initialization, backend="serial"
    )
    batched = full_disjunction(
        database, use_index=True, initialization=initialization, backend=backend
    )
    assert _labelled(serial) == _labelled(batched)


@pytest.mark.parametrize("backend", STEP_BACKENDS)
@pytest.mark.parametrize("name,database", WORKLOADS, ids=WORKLOAD_IDS)
def test_batched_priority_driver_is_order_identical(name, database, backend):
    ranking = MaxRanking(lambda t: float(sum(ord(ch) for ch in t.label) % 13))
    serial = list(priority_incremental_fd(database, ranking, use_index=True))
    batched = list(
        priority_incremental_fd(database, ranking, use_index=True, backend=backend)
    )
    assert [(ts.labels(), score) for ts, score in serial] == [
        (ts.labels(), score) for ts, score in batched
    ]


@pytest.mark.parametrize("backend", STEP_BACKENDS)
@pytest.mark.parametrize("use_index", [False, True], ids=["plain", "indexed"])
def test_batched_approx_driver_matches_serial(use_index, backend):
    database = chain_database(
        relations=3, tuples_per_relation=4, domain_size=3, null_rate=0.2, seed=5
    )
    amin = MinJoin(ExactMatchSimilarity())
    serial = approx_full_disjunction(database, amin, 0.6, use_index=use_index)
    batched = approx_full_disjunction(
        database, amin, 0.6, use_index=use_index, backend=backend
    )
    assert _labelled(serial) == _labelled(batched)


@pytest.mark.parametrize("backend", STEP_BACKENDS)
def test_batched_ranked_approx_driver_is_order_identical(backend):
    database = chain_database(
        relations=3, tuples_per_relation=4, domain_size=3, null_rate=0.2, seed=5
    )
    amin = MinJoin(ExactMatchSimilarity())
    ranking = MaxRanking(lambda t: float(sum(ord(ch) for ch in t.label) % 7))
    serial = list(
        ranked_approx_full_disjunction(database, amin, 0.6, ranking, use_index=True)
    )
    batched = list(
        ranked_approx_full_disjunction(
            database, amin, 0.6, ranking, use_index=True, backend=backend
        )
    )
    assert [(ts.labels(), score) for ts, score in serial] == [
        (ts.labels(), score) for ts, score in batched
    ]


@st.composite
def shaped_databases(draw):
    """Small star, chain and skewed-chain databases, some with tuples removed."""
    shape = draw(st.sampled_from(["star", "chain", "skewed"]))
    seed = draw(st.integers(0, 10_000))
    if shape == "star":
        database = star_database(
            spokes=draw(st.integers(2, 4)),
            tuples_per_relation=draw(st.integers(1, 3)),
            hub_domain=draw(st.integers(1, 2)),
            null_rate=0.1,
            seed=seed,
        )
    elif shape == "chain":
        database = chain_database(
            relations=draw(st.integers(2, 4)),
            tuples_per_relation=draw(st.integers(1, 4)),
            domain_size=draw(st.integers(1, 3)),
            null_rate=0.2,
            seed=seed,
        )
    else:
        database = skewed_chain_database(
            relations=3,
            tuples_per_relation=2,
            hot_factor=draw(st.integers(1, 3)),
            domain_size=2,
            seed=seed,
        )
    # Removals after the catalog exists tombstone tuples in place, so the
    # drop rule must ignore dead rows of the consistency matrix.
    database.catalog()
    victims = draw(
        st.lists(st.sampled_from(list(database.tuples())), max_size=3, unique=True)
    )
    for t in victims:
        database.remove_tuple(t.relation_name, t.label)
    return database


KERNELS = ("bigint", "packed") if numpy_available() else ("bigint",)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(database=shaped_databases(), use_index=st.booleans())
def test_singleton_driver_matches_the_oracle_on_every_backend(database, use_index):
    """Restricted passes are exact under every schedule and kernel."""
    expected = {ts.labels() for ts in naive_full_disjunction(database)}
    for kernel in KERNELS:
        with use_kernel(kernel):
            sequences = {}
            for backend in ("serial", "batched", "sharded:2", "sharded-pass:2"):
                results = full_disjunction(database, use_index=use_index, backend=backend)
                assert {ts.labels() for ts in results} == expected, (kernel, backend)
                assert len(results) == len(expected), (kernel, backend)
                sequences[backend] = _labelled(results)
            assert sequences["serial"] == sequences["batched"] == sequences["sharded-pass:2"]


def test_batched_probes_fewer_buckets_for_the_same_scans():
    """The batched schedule's whole point: fewer probes, same subset tests."""
    database = star_database(spokes=3, tuples_per_relation=5, hub_domain=2, seed=4)
    serial_statistics, batched_statistics = FDStatistics(), FDStatistics()
    serial = full_disjunction(
        database, use_index=True, statistics=serial_statistics, backend="serial"
    )
    batched = full_disjunction(
        database, use_index=True, statistics=batched_statistics, backend="batched"
    )
    assert _labelled(serial) == _labelled(batched)
    assert (
        batched_statistics.extras["complete_sets_scanned"]
        == serial_statistics.extras["complete_sets_scanned"]
    )
    assert (
        batched_statistics.extras["complete_bucket_probes"]
        < serial_statistics.extras["complete_bucket_probes"]
    )


class TestShardedBackend:
    """Process fan-out: slower to spin up, so only the key checks run it."""

    def test_bucket_full_disjunction_matches_serial_sets(self):
        """Bucket granularity reorders within a pass but never the answer set."""
        database = chain_database(
            relations=3, tuples_per_relation=5, domain_size=3, null_rate=0.2, seed=7
        )
        serial = full_disjunction(database, use_index=True, backend="serial")
        sharded = full_disjunction(database, use_index=True, backend="sharded:2")
        assert set(_labelled(serial)) == set(_labelled(sharded))
        assert len(serial) == len(sharded)

    def test_pass_granularity_is_order_identical_to_serial(self):
        database = chain_database(
            relations=3, tuples_per_relation=5, domain_size=3, null_rate=0.2, seed=7
        )
        serial = full_disjunction(database, use_index=True, backend="serial")
        sharded = full_disjunction(
            database, use_index=True, backend="sharded-pass:2"
        )
        assert _labelled(serial) == _labelled(sharded)

    def test_statistics_merge_deterministically(self):
        database = star_database(spokes=3, tuples_per_relation=4, hub_domain=2, seed=1)
        first, second = FDStatistics(), FDStatistics()
        full_disjunction(database, use_index=True, statistics=first, backend="sharded:2")
        full_disjunction(database, use_index=True, statistics=second, backend="sharded:2")
        assert first.as_dict() == second.as_dict()
        serial = FDStatistics()
        full_disjunction(database, use_index=True, statistics=serial, backend="serial")
        # The produced-result count is schedule-independent: each bucket
        # range yields exactly its anchored FD_i members, once each.
        assert serial.results == first.results
        # Pass granularity replays the serial schedule exactly, so all its
        # algorithmic counters match serial.
        pass_grained = FDStatistics()
        full_disjunction(
            database, use_index=True, statistics=pass_grained,
            backend="sharded-pass:2",
        )
        assert serial.results == pass_grained.results
        assert serial.candidates_generated == pass_grained.candidates_generated

    def test_approx_passes_match_serial(self):
        """ROADMAP item: approx pass scheduling goes through the backend too."""
        database = chain_database(
            relations=3, tuples_per_relation=4, domain_size=3, null_rate=0.2, seed=5
        )
        amin = MinJoin(ExactMatchSimilarity())
        serial = approx_full_disjunction(database, amin, 0.6, use_index=True)
        sharded = approx_full_disjunction(
            database, amin, 0.6, use_index=True, backend="sharded:2"
        )
        assert _labelled(serial) == _labelled(sharded)

    def test_first_k_abandons_remaining_passes(self):
        database = star_database(spokes=3, tuples_per_relation=4, hub_domain=2, seed=2)
        serial = full_disjunction(database, backend="serial")
        prefix = first_k(database, 3, backend="sharded-pass:2")
        assert _labelled(prefix) == _labelled(serial)[:3]
        # Bucket granularity streams a (differently ordered) prefix of the
        # same answer set.
        bucket_prefix = first_k(database, 3, backend="sharded:2")
        assert len(bucket_prefix) == 3
        full = {frozenset(labels) for labels in _labelled(serial)}
        assert all(frozenset(labels) in full for labels in _labelled(bucket_prefix))

    def test_results_are_interned_in_the_parent_catalog(self):
        database = chain_database(
            relations=3, tuples_per_relation=4, domain_size=3, seed=9
        )
        catalog = database.catalog()
        for tuple_set in full_disjunction(database, backend="sharded:2"):
            assert tuple_set.catalog is catalog

    def test_rejects_non_positive_workers(self):
        with pytest.raises(ValueError, match="max_workers"):
            ShardedBackend(max_workers=0)
        with pytest.raises(ValueError, match="worker count"):
            resolve_backend("sharded", workers=0)
        with pytest.raises(ValueError, match="worker count"):
            resolve_backend("sharded:-1")

    def test_empty_database_yields_nothing(self):
        from repro.relational.database import Database

        assert full_disjunction(Database(), backend="sharded") == []
        assert full_disjunction(Database(), backend="batched") == []
