"""The paper's linear lists, kept in ``benchmarks/linear_lists.py``.

The library's ``Complete`` and ``Incomplete`` are always the hash tables of
Section 7; E1 and E6 compare them with the linear lists of Figs. 1 and 2.
These tests keep that comparison arm honest: on the lists every pass returns
the naive oracle's answers, every probe walks every member, the counters of
E6's smaller star are pinned, and the library's containers are back on exit.
The module is loaded by path and only read.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.baselines.naive import naive_full_disjunction
from repro.core import incremental
from repro.core.full_disjunction import full_disjunction
from repro.core.incremental import FDStatistics, incremental_fd
from repro.core.store import CompleteStore, ListIncompletePool, probe_counters
from repro.workloads.generators import star_database

from tests.conftest import labels_of, linear_lists, on_store, small_databases

lists = linear_lists()


def _first_pass(database, store):
    statistics = FDStatistics()
    with on_store(store):
        results = list(incremental_fd(database, database.relation_names[0], statistics=statistics))
    return results, statistics


def _sets_scanned(statistics):
    extras = statistics.extras
    return extras["complete_sets_scanned"] + extras["incomplete_sets_scanned"]


def test_the_counters_of_e6s_smaller_star_are_pinned():
    """E6's ``star 4x6`` row: 198 answers, and 247,444 sets scanned on the
    lists against 70,814 on the index."""
    database = star_database(spokes=4, tuples_per_relation=6, hub_domain=2, seed=4)
    plain, plain_statistics = _first_pass(database, "plain")
    indexed, indexed_statistics = _first_pass(database, "indexed")
    assert labels_of(plain) == labels_of(indexed) and len(plain) == len(indexed) == 198
    assert _sets_scanned(plain_statistics) == 247_444
    assert _sets_scanned(indexed_statistics) == 70_814


def test_every_probe_on_the_lists_walks_every_member():
    database = star_database(spokes=3, tuples_per_relation=4, hub_domain=2, seed=1)
    _, plain = _first_pass(database, "plain")
    _, indexed = _first_pass(database, "indexed")
    bucket_probes, full_scans = probe_counters(plain)
    assert bucket_probes == 0 and full_scans > 0
    assert probe_counters(indexed)[1] == 0
    assert plain.candidates_subsumed == indexed.candidates_subsumed
    assert plain.candidates_merged == indexed.candidates_merged


def test_the_library_containers_are_back_on_exit():
    with pytest.raises(RuntimeError):
        with lists.linear_lists():
            assert incremental.CompleteStore is lists.LinearCompleteStore
            assert incremental.ListIncompletePool is lists.LinearIncompletePool
            raise RuntimeError
    assert incremental.CompleteStore is CompleteStore
    assert incremental.ListIncompletePool is ListIncompletePool


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(database=small_databases())
def test_the_lists_return_the_oracle_answers(database):
    expected = labels_of(naive_full_disjunction(database))
    with on_store("plain"):
        results = full_disjunction(database)
    assert labels_of(results) == expected
    assert len(results) == len(expected)
