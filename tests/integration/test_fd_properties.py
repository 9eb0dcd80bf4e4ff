"""Property-based tests: the full disjunction definition holds on random databases.

Definition 2.1 characterises ``FD(R)`` by three properties; on every random
small database we check all three directly, cross-check the algorithm against
the brute-force oracle and against the batch baseline, and verify that the
Section 7 execution variants (indexing, block-based scanning) never change
the produced set.
"""

from hypothesis import HealthCheck, given, settings

from repro.baselines.batch import batch_full_disjunction
from repro.baselines.naive import all_jcc_tuple_sets, naive_full_disjunction
from repro.core.full_disjunction import full_disjunction, full_disjunction_sets
from repro.core.incremental import incremental_fd

from tests.conftest import labels_of, small_databases

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@RELAXED
@given(database=small_databases())
def test_definition_property_results_are_jcc(database):
    """Definition 2.1(ii): every result is join consistent and connected."""
    for result in full_disjunction(database):
        assert result.is_jcc


@RELAXED
@given(database=small_databases())
def test_definition_property_no_redundancy(database):
    """Definition 2.1(i): no result is strictly contained in another."""
    results = full_disjunction(database)
    for first in results:
        for second in results:
            if first != second:
                assert not first.issubset(second)


@RELAXED
@given(database=small_databases(max_relations=3, max_tuples=3))
def test_definition_property_every_jcc_set_is_represented(database):
    """Definition 2.1(iii): every JCC tuple set is contained in some result."""
    results = full_disjunction(database)
    for candidate in all_jcc_tuple_sets(database):
        assert any(candidate.issubset(result) for result in results)


@RELAXED
@given(database=small_databases())
def test_matches_brute_force_oracle(database):
    assert labels_of(full_disjunction(database)) == labels_of(
        naive_full_disjunction(database)
    )


@RELAXED
@given(database=small_databases())
def test_no_duplicate_results(database):
    results = full_disjunction(database)
    assert len(results) == len(set(results))


@RELAXED
@given(database=small_databases(max_relations=3, max_tuples=3))
def test_execution_variants_agree(database):
    reference = labels_of(full_disjunction(database))
    assert labels_of(full_disjunction(database)) == reference
    assert labels_of(full_disjunction(database, block_size=2)) == reference


@RELAXED
@given(database=small_databases(max_relations=3, max_tuples=3))
def test_batch_baseline_agrees(database):
    assert labels_of(batch_full_disjunction(database)) == labels_of(
        full_disjunction(database)
    )


@RELAXED
@given(database=small_databases())
def test_incremental_fd_per_anchor_partitions_the_result(database):
    """FD(R) = ∪ FD_i(R), and each FD_i contains exactly the results with an R_i tuple."""
    results = full_disjunction(database)
    for relation in database.relations:
        fd_i = labels_of(incremental_fd(database, relation.name))
        expected = {
            ts.labels() for ts in results if ts.contains_tuple_from(relation.name)
        }
        assert fd_i == expected


@RELAXED
@given(database=small_databases())
def test_streaming_prefix_is_a_subset_of_the_full_result(database):
    full = labels_of(full_disjunction(database))
    prefix = []
    for result in full_disjunction_sets(database):
        prefix.append(result)
        if len(prefix) == 3:
            break
    assert labels_of(prefix) <= full
    assert len(prefix) == min(3, len(full))
