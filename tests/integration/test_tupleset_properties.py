"""Property-based tests for the tuple-set data structure invariants."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.triples import TripleList, merge_join_consistent
from repro.core.tupleset import TupleSet

from tests.conftest import small_databases

RELAXED = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def random_subsets(database, rng, count, max_size=3):
    """Draw random tuple subsets (not necessarily JCC) from a database."""
    all_tuples = list(database.tuples())
    catalog = database.catalog()
    subsets = []
    for _ in range(count):
        size = rng.randint(1, min(max_size, len(all_tuples)))
        subsets.append(TupleSet(rng.sample(all_tuples, size), catalog))
    return subsets


@RELAXED
@given(database=small_databases(), seed=st.integers(0, 1000))
def test_union_is_jcc_agrees_with_direct_computation(database, seed):
    """The optimised Line-14 test must agree with recomputing JCC from scratch."""
    rng = random.Random(seed)
    candidates = [ts for ts in random_subsets(database, rng, 8) if ts.is_jcc]
    for first in candidates:
        for second in candidates:
            assert first.union_is_jcc(second) == first.union(second).is_jcc


@RELAXED
@given(database=small_databases(), seed=st.integers(0, 1000))
def test_can_absorb_agrees_with_direct_computation(database, seed):
    rng = random.Random(seed)
    candidates = [ts for ts in random_subsets(database, rng, 6) if ts.is_jcc]
    tuples = list(database.tuples())
    for tuple_set in candidates:
        for t in tuples:
            if t in tuple_set:
                continue
            assert tuple_set.can_absorb(t) == tuple_set.with_tuple(t).is_jcc


@RELAXED
@given(database=small_databases(), seed=st.integers(0, 1000))
def test_maximal_jcc_subset_with_is_correct(database, seed):
    """Footnote 3: the returned set is JCC, contains t_b, and is maximal."""
    rng = random.Random(seed)
    candidates = [ts for ts in random_subsets(database, rng, 6) if ts.is_jcc]
    tuples = list(database.tuples())
    for tuple_set in candidates:
        for t in tuples:
            if t in tuple_set:
                continue
            subset = tuple_set.maximal_jcc_subset_with(t)
            assert t in subset
            assert subset.is_jcc
            assert subset.issubset(tuple_set.with_tuple(t))
            for dropped in tuple_set:
                if dropped not in subset:
                    assert not subset.can_absorb(dropped)


@RELAXED
@given(database=small_databases(), seed=st.integers(0, 1000))
def test_triple_list_check_agrees_with_tuple_set_check(database, seed):
    """The paper's sorted-triple representation decides the same consistency facts."""
    rng = random.Random(seed)
    candidates = [ts for ts in random_subsets(database, rng, 6) if ts.is_jcc]
    for first in candidates:
        for second in candidates:
            consistent, shares = merge_join_consistent(
                TripleList.from_tuple_set(first), TripleList.from_tuple_set(second)
            )
            same_relation_conflict = any(
                first.tuple_from(name) is not None
                and second.tuple_from(name) is not None
                and first.tuple_from(name) != second.tuple_from(name)
                for name in first.relations | second.relations
            )
            shares_member = bool(first.tuples & second.tuples)
            expected = first.union(second).is_jcc
            derived = consistent and (shares or shares_member) and not same_relation_conflict
            assert derived == expected


@RELAXED
@given(database=small_databases())
def test_tuple_set_hash_and_equality_are_order_insensitive(database):
    tuples = list(database.tuples())
    forward = TupleSet(tuples, database.catalog())
    backward = TupleSet(reversed(tuples), database.catalog())
    assert forward == backward
    assert hash(forward) == hash(backward)
