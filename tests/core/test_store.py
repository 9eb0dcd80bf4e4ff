"""Tests of the dual-indexed store layer (:mod:`repro.core.store`)."""

from __future__ import annotations

import pytest

from repro.core.pools import ListIncompletePool as ReferenceIncompletePool
from repro.core.store import (
    CompleteStore,
    ListIncompletePool,
    PoolStatistics,
    PriorityIncompletePool,
    record_store_statistics,
)
from repro.core.incremental import FDStatistics, incremental_fd
from repro.core.tupleset import TupleSet
from repro.workloads.generators import star_database
from repro.workloads.tourist import tourist_database

from tests.core.reference_store import CompleteStore as ReferenceCompleteStore


def _jcc_sets(database):
    """Every JCC set the engine produces for anchor R_1."""
    return list(incremental_fd(database, database.relation_names[0]))


class TestCompleteStoreDualIndex:
    def _populated(self, use_index):
        database = tourist_database()
        catalog = database.catalog()
        results = _jcc_sets(database)
        store = CompleteStore("Climates", use_index=use_index)
        for result in results:
            store.add(result.attach_catalog(catalog))
        return database, catalog, results, store

    @pytest.mark.parametrize("use_index", [False, True])
    def test_contains_superset_matches_reference(self, use_index):
        database, catalog, results, store = self._populated(use_index)
        reference = ReferenceCompleteStore("Climates", use_index=False)
        for result in results:
            reference.add(result)
        probes = [TupleSet.singleton(t, catalog=catalog) for t in database.tuples()]
        probes += [result for result in results]
        probes += [
            results[0].union(results[1]),
            TupleSet.empty(catalog=catalog),
        ]
        for probe in probes:
            anchor = probe.tuple_from("Climates")
            assert store.contains_superset(probe, anchor=anchor) == (
                reference.contains_superset(probe)
            ), f"diverges on {probe!r}"

    def test_indexed_probe_scans_fewer_sets(self):
        _, _, results, indexed = self._populated(use_index=True)
        _, _, _, plain = self._populated(use_index=False)
        for store in (indexed, plain):
            for result in results:
                store.contains_superset(result, anchor=result.tuple_from("Climates"))
        assert indexed.statistics.sets_scanned < plain.statistics.sets_scanned
        assert plain.statistics.full_scans > 0
        assert indexed.statistics.full_scans == 0
        assert indexed.statistics.bucket_probes > 0

    def test_relation_group_prefilter_skips_non_supersets(self):
        database = tourist_database()
        catalog = database.catalog()
        store = CompleteStore("Climates", use_index=True)
        c1 = database.tuple_by_label("c1")
        a1 = database.tuple_by_label("a1")
        s2 = database.tuple_by_label("s2")
        store.add(TupleSet.of(c1, a1, catalog=catalog))
        # Probe {c1, s2}: the stored set shares the anchor c1 but its relation
        # set {Climates, Attractions} cannot contain {Climates, Sites}, so the
        # group is skipped without a subset test.
        probe = TupleSet.of(c1, s2, catalog=catalog)
        assert not store.contains_superset(probe, anchor=c1)
        assert store.statistics.bucket_probes == 1
        assert store.statistics.sets_scanned == 0


class TestIncompletePoolSemantics:
    """The indexed pool preserves the paper's positional list semantics."""

    def _singletons(self, database, labels):
        return [TupleSet.singleton(database.tuple_by_label(label)) for label in labels]

    @pytest.mark.parametrize("extraction", ["paper", "fifo", "lifo"])
    def test_extraction_orders_match_reference(self, extraction):
        database = tourist_database()
        sets = self._singletons(database, ["c1", "c2", "c3"])
        new = ListIncompletePool("Climates", extraction=extraction)
        reference = ReferenceIncompletePool("Climates", extraction=extraction)
        for tuple_set in sets:
            new.add(tuple_set)
            reference.add(tuple_set)
        produced = []
        while new:
            popped = new.pop()
            assert popped == reference.pop()
            produced.append(popped)
        assert len(produced) == 3

    def test_replace_preserves_position(self):
        database = tourist_database()
        catalog = database.catalog()
        c1, c2, c3 = self._singletons(database, ["c1", "c2", "c3"])
        pool = ListIncompletePool("Climates", use_index=True)
        for tuple_set in (c1, c2, c3):
            pool.add(tuple_set.attach_catalog(catalog))
        grown = c2.with_tuple(database.tuple_by_label("s3"))
        pool.replace(c2.attach_catalog(catalog), grown.attach_catalog(catalog))
        assert pool.as_list()[1] == grown
        assert grown in pool
        assert c2 not in pool

    def test_candidates_uses_anchor_bucket(self):
        database = tourist_database()
        catalog = database.catalog()
        c1, c2 = self._singletons(database, ["c1", "c2"])
        pool = ListIncompletePool("Climates", use_index=True)
        pool.add(c1.attach_catalog(catalog))
        pool.add(c2.attach_catalog(catalog))
        bucket = pool.candidates(c1.attach_catalog(catalog))
        assert bucket == [c1]
        assert pool.statistics.sets_scanned == 1
        assert pool.statistics.bucket_probes == 1
        assert pool.statistics.full_scans == 0


class TestPriorityPool:
    def test_extraction_by_rank_with_insertion_tiebreak(self):
        database = tourist_database()
        ranking = lambda ts: float(len(ts))  # noqa: E731
        pool = PriorityIncompletePool("Climates", ranking, use_index=True)
        c1 = TupleSet.singleton(database.tuple_by_label("c1"))
        pair = c1.with_tuple(database.tuple_by_label("a1"))
        c2 = TupleSet.singleton(database.tuple_by_label("c2"))
        pool.add(c1)
        pool.add(pair)
        pool.add(c2)
        assert pool.peek_score() == 2.0
        assert pool.pop() == pair
        assert pool.pop() == c1  # tie with c2 broken by insertion order
        assert pool.pop() == c2


class TestStatisticsPlumbing:
    def test_pool_statistics_has_index_counters(self):
        statistics = PoolStatistics()
        as_dict = statistics.as_dict()
        assert as_dict["bucket_probes"] == 0
        assert as_dict["full_scans"] == 0
        assert "sets_scanned" in as_dict

    def test_record_store_statistics_accumulates_into_extras(self):
        statistics = FDStatistics()
        store = CompleteStore("Climates")
        store.add(TupleSet.empty())
        record_store_statistics(statistics, ("complete", store))
        record_store_statistics(statistics, ("complete", store))
        assert statistics.extras["complete_additions"] == 2

    def test_incremental_fd_reports_store_counters(self):
        database = star_database(spokes=3, tuples_per_relation=3, hub_domain=2, seed=4)
        plain = FDStatistics()
        list(incremental_fd(database, database.relation_names[0], statistics=plain))
        indexed = FDStatistics()
        list(
            incremental_fd(
                database,
                database.relation_names[0],
                use_index=True,
                statistics=indexed,
            )
        )
        for statistics in (plain, indexed):
            assert "incomplete_sets_scanned" in statistics.extras
            assert "complete_sets_scanned" in statistics.extras

        def scanned(statistics):
            return (
                statistics.extras["incomplete_sets_scanned"]
                + statistics.extras["complete_sets_scanned"]
            )

        assert scanned(indexed) <= scanned(plain)
