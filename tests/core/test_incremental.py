"""Tests for ``IncrementalFD`` and ``GetNextResult`` (Figs. 1–2)."""

import pytest

from repro.core.incremental import (
    FDStatistics,
    get_next_result,
    incremental_fd,
    maximally_extend,
    resolve_anchor,
)
from repro.core.pools import ListIncompletePool
from repro.core.scanner import TupleScanner
from repro.core.tupleset import TupleSet
from repro.relational.errors import DatabaseError
from repro.workloads.tourist import TABLE2_TUPLE_SETS

from tests.core.reference_store import CompleteStore


def labels(results):
    return {ts.labels() for ts in results}


#: FD_i of the tourist example, per anchor relation (derived from Table 2).
FD_BY_ANCHOR = {
    "Climates": set(TABLE2_TUPLE_SETS),
    "Accommodations": {
        frozenset({"c1", "a1"}),
        frozenset({"c1", "a2", "s1"}),
        frozenset({"c3", "a3"}),
    },
    "Sites": {
        frozenset({"c1", "a2", "s1"}),
        frozenset({"c1", "s2"}),
        frozenset({"c2", "s3"}),
        frozenset({"c2", "s4"}),
    },
}


class TestResolveAnchor:
    def test_accepts_name_and_index(self, tourist_db):
        assert resolve_anchor(tourist_db, "Sites") == "Sites"
        assert resolve_anchor(tourist_db, 0) == "Climates"

    def test_unknown_name_raises(self, tourist_db):
        with pytest.raises(DatabaseError):
            resolve_anchor(tourist_db, "Nope")

    def test_out_of_range_index_raises(self, tourist_db):
        with pytest.raises(DatabaseError):
            resolve_anchor(tourist_db, 9)


class TestMaximallyExtend:
    def test_extends_to_a_maximal_jcc_set(self, tourist_db):
        scanner = TupleScanner(tourist_db)
        seed = TupleSet.singleton(tourist_db.tuple_by_label("c1"), tourist_db.catalog())
        extended = maximally_extend(seed, scanner)
        assert extended.is_jcc
        for t in tourist_db.tuples():
            if t not in extended:
                assert not extended.can_absorb(t)

    def test_extension_of_already_maximal_set_is_identity(self, tourist_db):
        scanner = TupleScanner(tourist_db)
        maximal = TupleSet(
            (tourist_db.tuple_by_label(label) for label in ("c1", "a2", "s1")),
            tourist_db.catalog(),
        )
        assert maximally_extend(maximal, scanner) == maximal

    def test_counts_extension_passes(self, tourist_db):
        statistics = FDStatistics()
        scanner = TupleScanner(tourist_db)
        maximally_extend(
            TupleSet.singleton(tourist_db.tuple_by_label("c3"), tourist_db.catalog()), scanner, statistics
        )
        assert statistics.extension_passes >= 2  # one productive pass + the fixpoint pass


class TestGetNextResult:
    def test_produces_a_member_of_fd_i(self, tourist_db):
        incomplete = ListIncompletePool("Climates")
        complete = CompleteStore("Climates")
        for t in tourist_db.relation("Climates"):
            incomplete.add(TupleSet.singleton(t, tourist_db.catalog()))
        result = get_next_result(tourist_db, "Climates", incomplete, complete)
        assert result.labels() in FD_BY_ANCHOR["Climates"]

    def test_feeds_incomplete_with_anchored_candidates_only(self, tourist_db):
        incomplete = ListIncompletePool("Climates")
        complete = CompleteStore("Climates")
        for t in tourist_db.relation("Climates"):
            incomplete.add(TupleSet.singleton(t, tourist_db.catalog()))
        get_next_result(tourist_db, "Climates", incomplete, complete)
        for waiting in incomplete:
            assert waiting.contains_tuple_from("Climates")
            assert waiting.is_jcc


class TestIncrementalFD:
    @pytest.mark.parametrize("anchor", ["Climates", "Accommodations", "Sites"])
    def test_computes_fd_i_exactly(self, tourist_db, anchor):
        results = list(incremental_fd(tourist_db, anchor))
        assert labels(results) == FD_BY_ANCHOR[anchor]

    @pytest.mark.parametrize("anchor", ["Climates", "Accommodations", "Sites"])
    def test_no_result_is_produced_twice(self, tourist_db, anchor):
        results = list(incremental_fd(tourist_db, anchor))
        assert len(results) == len(set(results))

    def test_every_result_is_maximal_jcc(self, tourist_db):
        for result in incremental_fd(tourist_db, "Sites"):
            assert result.is_jcc
            for t in tourist_db.tuples():
                if t not in result:
                    assert not result.can_absorb(t)

    def test_anchor_may_be_an_index(self, tourist_db):
        assert labels(incremental_fd(tourist_db, 2)) == FD_BY_ANCHOR["Sites"]

    def test_results_are_streamed_lazily(self, tourist_db):
        generator = incremental_fd(tourist_db, "Climates")
        first = next(generator)
        assert first.labels() == frozenset({"c1", "a1"})
        generator.close()  # abandoning the generator is fine

    def test_use_index_does_not_change_results(self, tourist_db):
        plain = labels(incremental_fd(tourist_db, "Climates", use_index=False))
        indexed = labels(incremental_fd(tourist_db, "Climates", use_index=True))
        assert plain == indexed

    def test_custom_initialization(self, tourist_db):
        # Seeding with the full singleton list explicitly behaves like the default.
        initial = [TupleSet.singleton(t, tourist_db.catalog()) for t in tourist_db.relation("Sites")]
        results = labels(incremental_fd(tourist_db, "Sites", initial=initial))
        assert results == FD_BY_ANCHOR["Sites"]

    def test_statistics_are_populated(self, tourist_db):
        statistics = FDStatistics()
        results = list(incremental_fd(tourist_db, "Climates", statistics=statistics))
        assert statistics.results == len(results) == 6
        assert statistics.candidates_generated > 0
        assert statistics.tuple_reads > 0
        assert statistics.scan_passes > 0
        as_dict = statistics.as_dict()
        assert as_dict["results"] == 6

    def test_statistics_merge_accumulates(self):
        first = FDStatistics(results=2, tuple_reads=10)
        second = FDStatistics(results=3, tuple_reads=5, block_reads=7)
        first.merge(second)
        assert first.results == 5
        assert first.tuple_reads == 15
        assert first.block_reads == 7

    def test_callbacks_fire(self, tourist_db):
        seen = {"init": 0, "iterations": []}

        def on_initialized(incomplete, complete):
            seen["init"] += 1
            assert len(incomplete) == 3 and len(complete) == 0

        def on_iteration(iteration, result, incomplete, complete):
            seen["iterations"].append((iteration, result.labels()))
            assert result in complete

        list(
            incremental_fd(
                tourist_db,
                "Climates",
                on_initialized=on_initialized,
                on_iteration=on_iteration,
            )
        )
        assert seen["init"] == 1
        assert [i for i, _ in seen["iterations"]] == [1, 2, 3, 4, 5, 6]

    def test_number_of_iterations_equals_number_of_results(self, tourist_db):
        """Theorem 4.6: each loop iteration produces exactly one new result."""
        statistics = FDStatistics()
        results = list(incremental_fd(tourist_db, "Climates", statistics=statistics))
        assert len(results) == 6
        assert statistics.results == 6

    def test_external_complete_store_is_respected(self, tourist_db):
        complete = CompleteStore("Climates")
        # Pretend {c1, a1} was already produced: it must not be produced again,
        # because every candidate below it is discarded by the Line 11 check.
        complete.add(
            TupleSet(
                (tourist_db.tuple_by_label(label) for label in ("c1", "a1")),
                tourist_db.catalog(),
            )
        )
        results = labels(
            incremental_fd(
                tourist_db,
                "Climates",
                complete=complete,
                initial=[
                    TupleSet.singleton(tourist_db.tuple_by_label("c2"), tourist_db.catalog()),
                    TupleSet.singleton(tourist_db.tuple_by_label("c3"), tourist_db.catalog()),
                ],
            )
        )
        assert frozenset({"c1", "a1"}) not in results
