"""Tests for the ``FD(R)`` driver and the :class:`FullDisjunction` facade."""

import importlib.util
import os
from contextlib import closing
from itertools import islice

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.full_disjunction import (
    FullDisjunction,
    absorbs_earlier_tuple,
    first_k,
    full_disjunction,
    full_disjunction_sets,
    restricted_pass,
)
from repro.core.incremental import FDStatistics, incremental_fd
from repro.core.scanner import BlockScanner, TupleScanner
from repro.core.tupleset import TupleSet
from repro.relational.database import Database
from repro.relational.nulls import is_null
from repro.relational.relation import Relation
from repro.workloads.generators import (
    chain_database,
    skewed_chain_database,
    star_database,
)
from repro.workloads.tourist import TABLE2_TUPLE_SETS, table2_padded_rows, tourist_database
from repro.baselines.naive import naive_full_disjunction

from tests.conftest import STORES, labels_of, on_store, reuse_initialization, small_databases
from tests.core.reference_tupleset import ReferenceTupleSet

reuse = reuse_initialization()

#: The library's singleton seeding, then the two Section 7 reuse strategies
#: that E7 compares it with (``benchmarks/reuse_initialization.py``).
STRATEGIES = ("singletons", *reuse.STRATEGIES)


def _drained(database, initialization, **options):
    """``FD(R)`` as a list, with the passes seeded by ``initialization``."""
    if initialization == "singletons":
        return full_disjunction(database, **options)
    return list(reuse.reusing_full_disjunction(database, initialization, **options))


def _first_k(database, k, initialization, **options):
    """The first ``k`` answers, the stream closed after them."""
    if initialization == "singletons":
        return first_k(database, k, **options)
    with closing(reuse.reusing_full_disjunction(database, initialization, **options)) as run:
        return list(islice(run, k))


def _mutated_star():
    """A star whose catalog saw a removal and an update: dead rows."""
    database = star_database(spokes=3, tuples_per_relation=3, hub_domain=2, seed=4)
    database.catalog()
    hub, spoke = database.relations[0], database.relations[1]
    database.remove_tuple(hub.name, next(iter(hub)).label)
    victim = next(iter(spoke))
    database.update_tuple(spoke.name, victim.label, list(reversed(victim.values)))
    return database


#: Small workloads the driver tests run on, built fresh per test.
WORKLOADS = {
    "tourist": tourist_database,
    "star": lambda: star_database(spokes=3, tuples_per_relation=3, hub_domain=2, seed=11),
    "chain": lambda: chain_database(
        relations=4, tuples_per_relation=5, domain_size=3, null_rate=0.2, seed=5
    ),
    "skewed": lambda: skewed_chain_database(
        relations=3, tuples_per_relation=3, hot_factor=3, domain_size=3, seed=2
    ),
    "mutated": _mutated_star,
}
with_workloads = pytest.mark.parametrize("name", sorted(WORKLOADS))


class TestFullDisjunctionDriver:
    def test_reproduces_table2(self, tourist_db):
        assert labels_of(full_disjunction(tourist_db)) == set(TABLE2_TUPLE_SETS)

    def test_no_duplicates_across_passes(self, tourist_db):
        results = full_disjunction(tourist_db)
        assert len(results) == len(set(results)) == 6

    def test_unknown_strategy_raises(self, tourist_db):
        """Seeding is not an option of the library: every pass starts from
        the singletons of its relation."""
        with pytest.raises(TypeError, match="initialization"):
            full_disjunction(tourist_db, initialization="previous-results")

    @pytest.mark.parametrize("initialization", STRATEGIES)
    def test_all_configurations_agree(self, tourist_db, initialization):
        results = _drained(tourist_db, initialization)
        assert labels_of(results) == set(TABLE2_TUPLE_SETS)
        assert len(results) == 6

    def test_matches_oracle_on_chain_workload(self):
        database = chain_database(relations=3, tuples_per_relation=6, domain_size=3, seed=2)
        assert labels_of(full_disjunction(database)) == labels_of(
            naive_full_disjunction(database)
        )

    def test_matches_oracle_on_star_workload(self):
        database = star_database(spokes=3, tuples_per_relation=4, hub_domain=2, seed=3)
        assert labels_of(full_disjunction(database)) == labels_of(
            naive_full_disjunction(database)
        )

    def test_statistics_accumulate_across_passes(self, tourist_db):
        statistics = FDStatistics()
        full_disjunction(tourist_db, statistics=statistics)
        # Every pass contributes its results (6 + 3 + 4 for the three anchors).
        assert statistics.results == 13
        assert statistics.tuple_reads > 0

    def test_block_size_does_not_change_results(self, tourist_db):
        assert labels_of(full_disjunction(tourist_db, block_size=2)) == set(
            TABLE2_TUPLE_SETS
        )


class TestRestrictedPasses:
    """Pass i scans R_i..R_n and drops what can absorb a live R_<i tuple."""

    def test_a_removed_earlier_tuple_absorbs_nothing(self):
        first = Relation("R1", ["A", "B"])
        first.add(["a1", "b1"], label="r1")
        first.add(["a2", "b9"], label="r2")
        second = Relation("R2", ["B", "C"])
        second.add(["b1", "c1"], label="s1")
        database = Database([first, second])
        database.catalog()
        database.remove_tuple("R1", "r1")
        # {s1} could absorb r1 before the removal; afterwards it is an answer.
        results = full_disjunction(database)
        assert labels_of(results) == {frozenset({"r2"}), frozenset({"s1"})}
        assert len(results) == 2

    @pytest.mark.parametrize("remove", [False, True])
    def test_mask_test_matches_the_uninterned_test(self, remove):
        database = chain_database(
            relations=4, tuples_per_relation=5, domain_size=2, null_rate=0.2, seed=3
        )
        catalog = database.catalog()
        if remove:
            for name in ("R1", "R2"):
                database.remove_tuple(name, next(iter(database.relation(name))).label)
        for index, relation in enumerate(database.relations):
            later = [t for r in database.relations[index:] for t in r]
            for anchor in relation:
                # Grow a JCC set over R_>=i from the anchor, in scan order.
                grown = ReferenceTupleSet.singleton(anchor)
                for t in later:
                    if t not in grown and grown.can_absorb(t):
                        grown = grown.with_tuple(t)
                earlier = [t for r in database.relations[:index] for t in r]
                for members in (grown.tuples, [anchor]):
                    plain = ReferenceTupleSet(members)
                    interned = TupleSet(members, catalog=catalog)
                    assert absorbs_earlier_tuple(
                        interned, database, relation.name
                    ) == any(plain.can_absorb(t) for t in earlier)

    def test_passes_produce_only_maximal_sets_of_their_suffix(self):
        statistics = FDStatistics()
        full_disjunction(
            star_database(spokes=3, tuples_per_relation=2, hub_domain=1, seed=0),
            statistics=statistics,
        )
        # A 3-spoke star with one hub value: 2^3 answers from pass 1, and the
        # 2^2 + 2 maximal sets of passes 2 and 3 are all dropped.
        assert statistics.results == 8 + 4 + 2
        assert statistics.results_emitted == 8


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


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(database=shaped_databases())
def test_singleton_driver_matches_the_oracle(database):
    """Restricted passes are exact: the naive oracle's answer set, once each."""
    expected = {ts.labels() for ts in naive_full_disjunction(database)}
    results = full_disjunction(database)
    assert {ts.labels() for ts in results} == expected
    assert len(results) == len(expected)


def _pass_counts(database):
    """Per pass: the sets it dropped, and the answers it emitted."""
    drops, emitted = [], []
    for relation in database.relations:
        statistics = FDStatistics()
        list(restricted_pass(database, relation.name, statistics=statistics))
        drops.append(statistics.results - statistics.results_emitted)
        emitted.append(statistics.results_emitted)
    return drops, emitted


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(database=small_databases())
def test_a_pass_drops_no_more_sets_than_the_answers_before_it(database):
    """Each set pass i drops is the R_>=i component, holding its anchor, of
    one earlier answer, so the drops are bounded by the earlier answers, and
    ``results - results_emitted <= (n - 1) * results_emitted``."""
    drops, emitted = _pass_counts(database)
    for index, dropped in enumerate(drops):
        assert dropped <= sum(emitted[:index])
    assert sum(drops) <= (len(drops) - 1) * sum(emitted)


def _star_full_input():
    """``star-full``'s input, from ``perfbench/inputs.py`` (loaded by path and
    only read)."""
    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
        "perfbench",
        "inputs.py",
    )
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.balanced_star(1, **inputs.SCALES["full"]["star"])


def test_the_drops_of_star_full():
    """All 486 answers of the 5-spoke star come from the hub's pass; the
    spoke passes drop 162, 54, 18 and 6 of their components (726 results)."""
    drops, emitted = _pass_counts(_star_full_input())
    assert drops == [0, 162, 54, 18, 6]
    assert [sum(emitted[:index]) for index in range(5)] == [0, 486, 486, 486, 486]
    assert sum(drops) + sum(emitted) == 726


class TestDriverStatistics:
    """Counters survive an abandoned stream and count what each pass did."""

    @pytest.mark.parametrize("initialization", STRATEGIES)
    def test_first_k_and_drained_runs_report_their_work(self, initialization):
        database = chain_database(
            relations=4, tuples_per_relation=8, domain_size=4, null_rate=0.1, seed=1
        )
        statistics = FDStatistics()
        prefix = _first_k(database, 5, initialization, statistics=statistics)
        assert len(prefix) == 5
        assert statistics.results_emitted == 5
        assert statistics.results >= 5
        assert statistics.candidates_generated > 0
        drained = FDStatistics()
        answers = _drained(database, initialization, statistics=drained)
        assert drained.results_emitted == len(answers)
        assert drained.results >= len(answers)

    @pytest.mark.parametrize("store", STORES)
    @with_workloads
    def test_a_drained_run_counts_the_work_of_its_passes(self, name, store):
        """Pass i is ``IncrementalFD`` for R_i over R_i..R_n (Section 7):
        every counter of the drained driver but ``results_emitted`` is the
        sum of those runs' counters, and ``results_emitted`` counts the
        answers."""
        database = WORKLOADS[name]()
        drained = FDStatistics()
        summed = FDStatistics()
        with on_store(store):
            answers = full_disjunction(database, statistics=drained)
            for index, relation in enumerate(database.relations):
                statistics = FDStatistics()
                scanner = TupleScanner(database, database.relation_names[:index])
                list(
                    incremental_fd(database, relation.name, scanner=scanner, statistics=statistics)
                )
                summed.merge(statistics)
        expected = summed.as_dict()
        expected["results_emitted"] = len(answers)
        assert drained.as_dict() == expected
        assert drained.results > 0

    @pytest.mark.parametrize("initialization", STRATEGIES)
    def test_block_reads_count_every_fetched_block(self, initialization, monkeypatch):
        fetched = []
        scan_blocks = BlockScanner.scan_blocks

        def counting(scanner):
            for block in scan_blocks(scanner):
                fetched.append(len(block))
                yield block

        monkeypatch.setattr(BlockScanner, "scan_blocks", counting)
        database = star_database(spokes=3, tuples_per_relation=4, hub_domain=2, seed=1)
        statistics = FDStatistics()
        _drained(database, initialization, block_size=2, statistics=statistics)
        assert statistics.block_reads > 0
        assert statistics.block_reads == len(fetched)
        assert statistics.tuple_reads == sum(fetched)


class TestStreamingAndFirstK:
    @pytest.mark.parametrize("initialization", STRATEGIES)
    @with_workloads
    def test_first_k_is_the_prefix_of_the_drained_stream(self, name, initialization):
        """One schedule: stopping early returns the drained run's first k
        answers in its order, after no more work than the drained run."""
        database = WORKLOADS[name]()
        drained = FDStatistics()
        answers = [
            ts.labels() for ts in _drained(database, initialization, statistics=drained)
        ]
        for k in sorted({1, len(answers) // 2, len(answers)}):
            statistics = FDStatistics()
            prefix = _first_k(database, k, initialization, statistics=statistics)
            assert [ts.labels() for ts in prefix] == answers[:k]
            assert statistics.results_emitted == k
            assert statistics.results <= drained.results

    def test_first_k_returns_k_distinct_results(self, tourist_db):
        results = first_k(tourist_db, 3)
        assert len(results) == 3
        assert len(set(results)) == 3
        assert labels_of(results) <= set(TABLE2_TUPLE_SETS)

    def test_first_k_larger_than_result_returns_everything(self, tourist_db):
        assert len(first_k(tourist_db, 99)) == 6

    def test_first_zero(self, tourist_db):
        assert first_k(tourist_db, 0) == []

    def test_first_k_negative_raises(self, tourist_db):
        with pytest.raises(ValueError):
            first_k(tourist_db, -1)

    def test_generator_is_lazy(self, tourist_db):
        generator = full_disjunction_sets(tourist_db)
        first = next(generator)
        assert first.labels() in set(TABLE2_TUPLE_SETS)
        generator.close()

    def test_first_k_on_exponential_star_is_cheap(self):
        # The full result of a 5-spoke star is large; asking for 5 members
        # must not require materialising it.
        database = star_database(spokes=5, tuples_per_relation=6, hub_domain=2, seed=0)
        statistics = FDStatistics()
        results = []
        for result in full_disjunction_sets(database, statistics=statistics):
            results.append(result)
            if len(results) == 5:
                break
        assert len(results) == 5
        assert statistics.results <= 6  # barely more work than the answers asked for


class TestFullDisjunctionFacade:
    def test_compute_is_cached(self, tourist_db):
        fd = FullDisjunction(tourist_db)
        first = fd.compute()
        second = fd.compute()
        assert first == second
        assert first is not second  # defensive copy

    def test_iteration_streams(self, tourist_db):
        fd = FullDisjunction(tourist_db)
        assert labels_of(list(iter(fd))) == set(TABLE2_TUPLE_SETS)

    def test_first(self, tourist_db):
        fd = FullDisjunction(tourist_db)
        assert len(fd.first(2)) == 2

    def test_result_schema_covers_all_attributes(self, tourist_db):
        fd = FullDisjunction(tourist_db)
        assert set(fd.result_schema().attributes) == {
            "Country",
            "Climate",
            "City",
            "Hotel",
            "Stars",
            "Site",
        }

    def test_padded_rows_match_table2(self, tourist_db):
        fd = FullDisjunction(tourist_db)
        rows = fd.padded_rows()
        results = fd.compute()
        by_labels = {
            results[index].labels(): rows[index] for index in range(len(results))
        }
        for expected in table2_padded_rows():
            row = by_labels[expected["labels"]]
            for attribute in ("Country", "City", "Climate", "Hotel", "Stars", "Site"):
                value = expected[attribute]
                if is_null(value):
                    assert is_null(row[attribute])
                else:
                    assert row[attribute] == value

    def test_to_relation(self, tourist_db):
        fd = FullDisjunction(tourist_db)
        relation = fd.to_relation()
        assert len(relation) == 6
        assert set(relation.schema.attributes) == set(fd.result_schema().attributes)

    def test_pretty_renders_all_tuple_sets(self, tourist_db):
        rendered = FullDisjunction(tourist_db).pretty()
        assert "{a1, c1}" in rendered
        assert "Mount Logan" in rendered
        assert "⊥" in rendered

    def test_database_property(self, tourist_db):
        assert FullDisjunction(tourist_db).database is tourist_db
