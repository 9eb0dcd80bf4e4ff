"""End-to-end reproduction of every worked example in the paper.

* Table 1 — the source relations (checked in ``tests/workloads/test_tourist``);
* Table 2 — the full disjunction, both as tuple sets and as padded rows;
* Table 3 — the execution trace of ``IncrementalFD(…, 1)``;
* Example 2.2 — the natural join contains the single fully-joined tuple;
* Example 4.1 — the loop runs exactly six times;
* Examples 6.1 / 6.3 and Fig. 4 — the approximate-join values and the maximal
  qualifying subsets for ``A_min`` and ``A_prod``.
"""

import pytest

from repro.core.approx_join import MinJoin, ProductJoin
from repro.core.full_disjunction import FullDisjunction, full_disjunction
from repro.core.incremental import FDStatistics, incremental_fd
from repro.core.trace import trace_incremental_fd
from repro.core.tupleset import TupleSet
from repro.relational import operators
from repro.relational.nulls import is_null
from repro.workloads.tourist import (
    TABLE2_TUPLE_SETS,
    TABLE3_TRACE,
    noisy_tourist_database,
    noisy_tourist_similarity,
    table2_padded_rows,
)

from tests.conftest import labels_of


class TestTable2:
    def test_tuple_sets(self, tourist_db):
        assert labels_of(full_disjunction(tourist_db)) == set(TABLE2_TUPLE_SETS)

    def test_tuple_set_count_is_six(self, tourist_db):
        assert len(full_disjunction(tourist_db)) == 6

    def test_padded_rows(self, tourist_db):
        fd = FullDisjunction(tourist_db)
        rows = {
            result.labels(): row
            for result, row in zip(fd.compute(), fd.padded_rows())
        }
        for expected in table2_padded_rows():
            row = rows[expected["labels"]]
            for attribute, value in expected.items():
                if attribute == "labels":
                    continue
                if is_null(value):
                    assert is_null(row[attribute]), (expected["labels"], attribute)
                else:
                    assert row[attribute] == value, (expected["labels"], attribute)


class TestExample22NaturalJoin:
    def test_natural_join_is_the_single_full_tuple(self, tourist_db):
        climates, accommodations, sites = tourist_db.relations
        joined = operators.natural_join(
            operators.natural_join(climates, accommodations), sites
        )
        assert len(joined) == 1
        row = joined.tuples[0].as_dict()
        assert row == {
            "Country": "Canada",
            "Climate": "diverse",
            "City": "London",
            "Hotel": "Ramada",
            "Stars": 3,
            "Site": "Air Show",
        }

    def test_tuple_set_without_accommodation_because_of_null(self, tourist_db):
        # "{c1, s2} does not contain a tuple from Accommodations since no tuple
        #  in Accommodations is join consistent with {c1, s2}" (Example 2.2).
        c1_s2 = TupleSet((tourist_db.tuple_by_label(label) for label in ("c1", "s2")), tourist_db.catalog())
        for t in tourist_db.relation("Accommodations"):
            assert not c1_s2.can_absorb(t)


class TestTable3AndExample41:
    def test_trace_matches_table3(self, tourist_db):
        trace = trace_incremental_fd(tourist_db, "Climates")
        for label, incomplete, complete in TABLE3_TRACE:
            snapshot = trace.snapshot(label)
            assert snapshot.incomplete_labels() == incomplete
            assert snapshot.complete_labels() == complete

    def test_loop_iterates_exactly_six_times(self, tourist_db):
        """Example 4.1: the loop over Incomplete iterates exactly |FD_1| = 6 times."""
        statistics = FDStatistics()
        results = list(incremental_fd(tourist_db, "Climates", statistics=statistics))
        assert len(results) == 6
        assert statistics.results == 6

    def test_results_follow_the_papers_order(self, tourist_db):
        results = [ts.labels() for ts in incremental_fd(tourist_db, "Climates")]
        assert results == [
            frozenset({"c1", "a1"}),
            frozenset({"c1", "a2", "s1"}),
            frozenset({"c1", "s2"}),
            frozenset({"c2", "s3"}),
            frozenset({"c2", "s4"}),
            frozenset({"c3", "a3"}),
        ]


class TestFig4AndSection6Examples:
    @pytest.fixture
    def noisy(self):
        return noisy_tourist_database()

    @pytest.fixture
    def sim(self):
        return noisy_tourist_similarity()

    def test_example_61_amin_value(self, noisy, sim):
        t1 = TupleSet((noisy.tuple_by_label(label) for label in ("c1", "a2", "s2")), noisy.catalog())
        assert MinJoin(sim)(t1) == pytest.approx(0.5)

    def test_example_61_aprod_value(self, noisy, sim):
        t1 = TupleSet((noisy.tuple_by_label(label) for label in ("c1", "a2", "s2")), noisy.catalog())
        assert ProductJoin(sim)(t1) == pytest.approx(0.32)

    def test_example_63_amin_unique_maximal_subset(self, noisy, sim):
        base = TupleSet((noisy.tuple_by_label(label) for label in ("c1", "s1", "a2")), noisy.catalog())
        s2 = noisy.tuple_by_label("s2")
        extensions = MinJoin(sim).candidate_extensions(base, s2, 0.4)
        assert [ts.labels() for ts in extensions] == [frozenset({"c1", "s2", "a2"})]
        assert MinJoin(sim)(extensions[0]) == pytest.approx(0.5)

    def test_example_63_aprod_two_maximal_subsets(self, noisy, sim):
        base = TupleSet((noisy.tuple_by_label(label) for label in ("c1", "s1", "a2")), noisy.catalog())
        s2 = noisy.tuple_by_label("s2")
        extensions = ProductJoin(sim).candidate_extensions(base, s2, 0.4)
        assert {ts.labels() for ts in extensions} == {
            frozenset({"c1", "s2"}),
            frozenset({"s2", "a2"}),
        }

    def test_example_63_aprod_full_set_fails_threshold(self, noisy, sim):
        full = TupleSet((noisy.tuple_by_label(label) for label in ("c1", "s2", "a2")), noisy.catalog())
        assert ProductJoin(sim)(full) == pytest.approx(0.32)
        assert ProductJoin(sim)(full) < 0.4
