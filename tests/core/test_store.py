"""Tests of the dual-indexed store layer (:mod:`repro.core.store`)."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.full_disjunction import full_disjunction_sets
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

from tests.conftest import on_store
from tests.core.reference_store import CompleteStore as ReferenceCompleteStore
from tests.core.reference_store import IncompleteList
from tests.core.reference_store import WalkedCompleteStore


def _jcc_sets(database):
    """Every JCC set the engine produces for anchor R_1."""
    return list(incremental_fd(database, database.relation_names[0]))


class TestCompleteStoreDualIndex:
    def _populated(self):
        database = tourist_database()
        catalog = database.catalog()
        results = _jcc_sets(database)
        store = CompleteStore("Climates")
        for result in results:
            store.add(result)
        return database, catalog, results, store

    def test_contains_superset_matches_reference(self):
        database, catalog, results, store = self._populated()
        reference = ReferenceCompleteStore("Climates")
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
        _, _, results, indexed = self._populated()
        plain = ReferenceCompleteStore("Climates")
        for result in results:
            plain.add(result)
        for store in (indexed, plain):
            for result in results:
                store.contains_superset(result, anchor=result.tuple_from("Climates"))
        assert indexed.statistics.sets_scanned < plain.statistics.sets_scanned
        assert indexed.statistics.full_scans == 0
        assert indexed.statistics.bucket_probes > 0

    def test_relation_group_prefilter_skips_non_supersets(self):
        database = tourist_database()
        catalog = database.catalog()
        store = CompleteStore("Climates")
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


def _stored_candidates(database, catalog):
    """Sets to store and probe: every connected subset of every answer of the
    full disjunction, in gid-mask order, then one set of two tuples of one
    relation, which has more gids than relations."""
    by_mask = {}
    for answer in full_disjunction_sets(database):
        for size in range(1, len(answer) + 1):
            for subset in itertools.combinations(answer, size):
                tuple_set = TupleSet(subset, catalog=catalog)
                if tuple_set.is_connected:
                    by_mask.setdefault(tuple_set.id_mask, tuple_set)
    crowded = TupleSet(list(database.relations[0])[:2], catalog=catalog)
    return [by_mask[mask] for mask in sorted(by_mask)] + [crowded]


def _counters(store):
    statistics = store.statistics
    return statistics.sets_scanned, statistics.bucket_probes, statistics.full_scans


def _probe_all(store, walked, sets, catalog):
    for probe in sets:
        anchor = min(probe, key=lambda t: t.label)
        arguments = (probe.id_mask, probe.relation_mask, anchor, catalog)
        assert store.contains_superset_mask(*arguments) == (
            walked.contains_superset_mask(*arguments)
        )
    assert _counters(store) == _counters(walked)


STORE_OPS = st.lists(
    st.tuples(
        st.sampled_from(["add", "add", "probe", "probe mask", "retract"]),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
    ),
    min_size=20,
    max_size=80,
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    stored=st.lists(st.integers(0, 10**6), min_size=10, max_size=60),
    operations=STORE_OPS,
)
def test_lookups_answer_and_count_as_the_walk_does(seed, stored, operations):
    """The indexed store answers a probe whose relation set equals a group's
    from the group's first positions; through random adds (duplicates
    included), probes of both kinds and retractions, it gives the walk's
    answers and counts the walk's sets and groups."""
    database = star_database(
        spokes=3, tuples_per_relation=3, hub_domain=2, null_rate=0.1, seed=seed
    )
    catalog = database.catalog()
    sets = _stored_candidates(database, catalog)
    tuples = list(database.tuples())
    anchor_relation = database.relation_names[0]
    store = CompleteStore(anchor_relation)
    walked = WalkedCompleteStore(anchor_relation)
    for index in stored:
        store.add(sets[index % len(sets)])
        walked.add(sets[index % len(sets)])
    for step, (operation, first, second) in enumerate(operations):
        chosen = sets[first % len(sets)]
        # The bucket key: a member of the probe, or now and then any tuple.
        keys = sorted(chosen, key=lambda t: t.label) + [tuples[second % len(tuples)]]
        anchor = keys[second % len(keys)]
        if operation == "add":
            store.add(chosen)
            walked.add(chosen)
        elif operation == "probe":
            # Every other probe leaves the anchor to the anchor relation.
            key = anchor if second % 2 else None
            assert store.contains_superset(chosen, anchor=key) == (
                walked.contains_superset(chosen, anchor=key)
            )
        elif operation == "probe mask":
            probe = (chosen.id_mask, chosen.relation_mask, anchor, catalog)
            assert store.contains_superset_mask(*probe) == (
                walked.contains_superset_mask(*probe)
            )
        else:
            # Every group probed once per set before the retraction, which
            # builds its map, and after it.
            _probe_all(store, walked, sets, catalog)
            dead = [tuples[second % len(tuples)]]
            assert store.retract_containing(dead) == walked.retract_containing(dead)
            _probe_all(store, walked, sets, catalog)
        assert _counters(store) == _counters(walked), operation


def _containers():
    """A fresh instance of every container kind, by name."""
    ranking = lambda ts: float(len(ts))  # noqa: E731
    return {
        "complete": CompleteStore("Climates"),
        "list": ListIncompletePool("Climates"),
        "priority": PriorityIncompletePool("Climates", ranking),
    }


@pytest.mark.parametrize("kind", sorted(_containers()))
def test_every_container_refuses_a_set_of_a_second_catalog(kind):
    """A container holds the sets of the catalog its first set is of: one
    of another catalog — here the same tuples, catalogued again after a
    compaction — is refused on ``add`` and as a replacement, and nothing
    changes."""
    database = tourist_database()
    old = database.catalog()
    c1, c2 = database.tuple_by_label("c1"), database.tuple_by_label("c2")
    held = TupleSet.singleton(c1, old)
    container = _containers()[kind]
    container.add(held)
    new = database.compact()
    assert new is not old
    with pytest.raises(ValueError, match="one catalog"):
        container.add(TupleSet.singleton(c2, new))
    if hasattr(container, "replace"):
        with pytest.raises(ValueError, match="one catalog"):
            container.replace(held, TupleSet.of(c1, c2, catalog=new))
    if hasattr(container, "seed"):
        container.pop()
        with pytest.raises(ValueError, match="one catalog"):
            container.seed(new.mask_of([c1, c2]), new)
    else:
        assert list(container) == [held]


class TestIncompletePoolSemantics:
    """The indexed pool preserves the paper's positional list semantics."""

    def _singletons(self, database, labels):
        catalog = database.catalog()
        return [TupleSet.singleton(database.tuple_by_label(label), catalog) for label in labels]

    def test_extraction_orders_match_reference(self):
        database = tourist_database()
        sets = self._singletons(database, ["c1", "c2", "c3"])
        new = ListIncompletePool("Climates")
        reference = IncompleteList("Climates")
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
        pool = ListIncompletePool("Climates")
        for tuple_set in (c1, c2, c3):
            pool.add(tuple_set)
        grown = c2.with_tuple(database.tuple_by_label("s3"))
        pool.replace(c2, grown)
        assert pool.as_list()[1] == grown
        assert grown in pool
        assert c2 not in pool

    def test_candidates_uses_anchor_bucket(self):
        database = tourist_database()
        catalog = database.catalog()
        c1, c2 = self._singletons(database, ["c1", "c2"])
        pool = ListIncompletePool("Climates")
        pool.add(c1)
        pool.add(c2)
        bucket = pool.candidates(c1)
        assert bucket == [c1]
        assert pool.statistics.sets_scanned == 1
        assert pool.statistics.bucket_probes == 1
        assert pool.statistics.full_scans == 0


class TestPriorityPool:
    def test_extraction_by_rank_with_insertion_tiebreak(self):
        database = tourist_database()
        ranking = lambda ts: float(len(ts))  # noqa: E731
        pool = PriorityIncompletePool("Climates", ranking)
        catalog = database.catalog()
        c1 = TupleSet.singleton(database.tuple_by_label("c1"), catalog)
        pair = c1.with_tuple(database.tuple_by_label("a1"))
        c2 = TupleSet.singleton(database.tuple_by_label("c2"), catalog)
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
        store.add(TupleSet.empty(tourist_database().catalog()))
        record_store_statistics(statistics, ("complete", store))
        record_store_statistics(statistics, ("complete", store))
        assert statistics.extras["complete_additions"] == 2

    def test_incremental_fd_reports_store_counters(self):
        database = star_database(spokes=3, tuples_per_relation=3, hub_domain=2, seed=4)
        plain = FDStatistics()
        with on_store("plain"):
            list(incremental_fd(database, database.relation_names[0], statistics=plain))
        indexed = FDStatistics()
        list(incremental_fd(database, database.relation_names[0], statistics=indexed))
        for statistics in (plain, indexed):
            assert "incomplete_sets_scanned" in statistics.extras
            assert "complete_sets_scanned" in statistics.extras

        def scanned(statistics):
            return (
                statistics.extras["incomplete_sets_scanned"]
                + statistics.extras["complete_sets_scanned"]
            )

        assert scanned(indexed) <= scanned(plain)
