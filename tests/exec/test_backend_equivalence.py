"""Cross-backend equivalence: the serial and sharded schedules.

In the style of ``tests/core/test_tupleset_equivalence.py``: the execution
backends must return the naive oracle's answer set on randomized workloads,
under both kernels, and every driver must send each of its steps, exact or
approximate, through the backend's ``next_result``.
"""

from __future__ import annotations

import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.naive import naive_full_disjunction
from repro.core.approx import ApproxSemantics, approx_full_disjunction
from repro.core.approx_join import EditDistanceSimilarity, ExactMatchSimilarity, MinJoin
from repro.core.full_disjunction import first_k, full_disjunction
from repro.core.incremental import EXACT, FDStatistics, incremental_fd
from repro.core.kernels import numpy_available, use_kernel
from repro.core.priority import priority_incremental_fd
from repro.core.ranking import MaxRanking
from repro.exec import (
    BACKENDS,
    ExecutionBackend,
    SerialBackend,
    ShardedBackend,
    resolve_backend,
)
from repro.exec import sharded as sharded_module
from repro.workloads.dirty import dirty_sources_database
from repro.workloads.generators import (
    chain_database,
    random_database,
    skewed_chain_database,
    star_database,
)
from repro.workloads.tourist import tourist_database


def _labelled(results):
    return [ts.labels() for ts in results]


class TestResolveBackend:
    def test_none_is_serial(self):
        assert isinstance(resolve_backend(None), SerialBackend)

    def test_names_resolve(self):
        assert BACKENDS == ("serial", "sharded")
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("sharded"), ShardedBackend)

    def test_instances_pass_through(self):
        backend = SerialBackend()
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

    @pytest.mark.parametrize(
        "name", ["batched", "async", "asyncio", "sharded-pass", "sharded-pass:2"]
    )
    def test_removed_names_are_refused_with_the_accepted_ones(self, name):
        with pytest.raises(ValueError, match=r"expected one of \('serial', 'sharded'\)"):
            resolve_backend(name)

    def test_worker_count_on_in_process_backends_is_rejected(self):
        with pytest.raises(ValueError, match="no worker count"):
            resolve_backend("serial", workers=8)
        with pytest.raises(ValueError, match="no worker count"):
            resolve_backend("serial:4")

    def test_bad_worker_suffix_raises(self):
        with pytest.raises(ValueError, match="invalid worker count"):
            resolve_backend("sharded:many")

    def test_every_advertised_backend_resolves(self):
        for name in BACKENDS:
            assert isinstance(resolve_backend(name), ExecutionBackend)


class RecordingBackend(SerialBackend):
    """The serial step, recording the semantics of every call."""

    def __init__(self):
        self.semantics = []

    def next_result(self, *args, **kwargs):
        self.semantics.append(type(kwargs.get("semantics", EXACT)))
        return super().next_result(*args, **kwargs)


def _workloads():
    yield "tourist", tourist_database()
    yield "chain", chain_database(
        relations=3, tuples_per_relation=4, domain_size=3, null_rate=0.2, seed=5
    )
    yield "star", star_database(spokes=3, tuples_per_relation=3, hub_domain=2, seed=11)
    for seed in (0, 1):
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
AMIN = MinJoin(ExactMatchSimilarity())
RANKING = MaxRanking(lambda t: float(sum(ord(ch) for ch in t.label) % 7))

#: Every driver that takes a backend, with the semantics its steps carry.
DRIVERS = {
    "fd": (
        lambda db, backend: _labelled(full_disjunction(db, backend=backend)),
        EXACT,
    ),
    "fd-reuse": (
        lambda db, backend: _labelled(
            full_disjunction(
                db, use_index=True, initialization="previous-results",
                backend=backend,
            )
        ),
        EXACT,
    ),
    "first-k": (
        lambda db, backend: _labelled(first_k(db, 3, backend=backend)),
        EXACT,
    ),
    "pass": (
        lambda db, backend: _labelled(
            incremental_fd(
                db, db.relation_names[-1], use_index=True, backend=backend
            )
        ),
        EXACT,
    ),
    "priority": (
        lambda db, backend: [
            (ts.labels(), score)
            for ts, score in priority_incremental_fd(
                db, RANKING, use_index=True, backend=backend
            )
        ],
        EXACT,
    ),
    "approx": (
        lambda db, backend: _labelled(
            approx_full_disjunction(db, AMIN, 0.6, backend=backend)
        ),
        ApproxSemantics(AMIN, 0.6),
    ),
    "approx-pass": (
        lambda db, backend: _labelled(
            incremental_fd(
                db, db.relation_names[-1], use_index=True, backend=backend,
                semantics=ApproxSemantics(AMIN, 0.6),
            )
        ),
        ApproxSemantics(AMIN, 0.6),
    ),
    "ranked-approx": (
        lambda db, backend: [
            (ts.labels(), score)
            for ts, score in priority_incremental_fd(
                db, RANKING, use_index=True, backend=backend,
                semantics=ApproxSemantics(AMIN, 0.6),
            )
        ],
        ApproxSemantics(AMIN, 0.6),
    ),
}


@pytest.mark.parametrize("name,database", WORKLOADS, ids=WORKLOAD_IDS)
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_every_step_goes_through_the_backend(driver, name, database):
    """A backend sees each step of each driver, with that driver's semantics,
    and returns the default run's answers in the default run's order."""
    run, semantics = DRIVERS[driver]
    backend = RecordingBackend()
    assert run(database, backend) == run(database, None)
    assert backend.semantics
    assert set(backend.semantics) == {type(semantics)}


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
            for backend in ("serial", "sharded:2"):
                results = full_disjunction(database, use_index=use_index, backend=backend)
                assert {ts.labels() for ts in results} == expected, (kernel, backend)
                assert len(results) == len(expected), (kernel, backend)


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

    def test_approx_statistics_match_serial_and_sum_the_passes(self):
        """Every approximate pass keeps its own counters and all are merged,
        so the serial and the sharded driver report the same ``FDStatistics``
        and the scan counters are the per-anchor sums."""
        database = dirty_sources_database(seed=0)
        amin = MinJoin(EditDistanceSimilarity())
        by_backend = {}
        for backend in ("serial", "sharded:2"):
            statistics = FDStatistics()
            approx_full_disjunction(
                database, amin, 0.8, use_index=True, statistics=statistics,
                backend=backend,
            )
            by_backend[backend] = statistics.as_dict()
        assert by_backend["serial"] == by_backend["sharded:2"]
        passes = []
        for anchor in database.relation_names:
            statistics = FDStatistics()
            list(
                incremental_fd(
                    database, anchor, use_index=True, statistics=statistics,
                    semantics=ApproxSemantics(amin, 0.8),
                )
            )
            passes.append(statistics)
        assert by_backend["serial"]["tuple_reads"] == sum(s.tuple_reads for s in passes)
        assert by_backend["serial"]["scan_passes"] == sum(s.scan_passes for s in passes)

    def test_out_of_range_threshold_fails_before_the_pool(self):
        """A bad τ raises in the caller: no worker runs, nothing warns of a
        pool failure, and the warm pool survives for the next call."""
        database = dirty_sources_database(seed=0)
        amin = MinJoin(EditDistanceSimilarity())
        approx_full_disjunction(database, amin, 0.8, backend="sharded:2")
        warm = sharded_module._POOL
        assert warm is not None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="threshold"):
                approx_full_disjunction(database, amin, 1.5, backend="sharded:2")
        assert sharded_module._POOL is warm

    def test_first_k_abandons_remaining_passes(self):
        database = star_database(spokes=3, tuples_per_relation=4, hub_domain=2, seed=2)
        serial = full_disjunction(database, backend="serial")
        # Bucket ranges stream a (differently ordered) prefix of the same
        # answer set.
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
