"""A query runs in the catalog ``database.catalog()`` gave it at its start.

A rebuild under a running query — compaction, a new relation, or tuples
added behind the database's back — makes the next pull of every driver
raise ``DatabaseError`` ("restart the query"), and a run started after the
rebuild returns the oracle's answers.  Appends, removals and updates made
through the ``Database`` keep the catalog, and the running query goes on.
"""

from __future__ import annotations

import pytest

from repro.baselines.naive import naive_approx_full_disjunction, naive_full_disjunction
from repro.core.approx import approx_full_disjunction_sets
from repro.core.approx_join import ExactMatchSimilarity, MinJoin
from repro.core.full_disjunction import full_disjunction_sets
from repro.core.priority import priority_incremental_fd
from repro.core.ranking import MaxRanking
from repro.relational.errors import DatabaseError
from repro.relational.relation import Relation
from repro.workloads.tourist import tourist_database, tourist_importance

from tests.conftest import labels_of, reuse_initialization

APPROXIMATE = MinJoin(ExactMatchSimilarity())
REUSE = reuse_initialization()

#: Each driver as a function of the database, yielding tuple sets.
DRIVERS = {
    "fd": lambda database: full_disjunction_sets(database),
    "fd indexed": lambda database: full_disjunction_sets(database, use_index=True),
    "blocks": lambda database: full_disjunction_sets(database, block_size=2),
    "previous-results": lambda database: REUSE.reusing_full_disjunction(
        database, "previous-results"
    ),
    "reduced-previous": lambda database: REUSE.reusing_full_disjunction(
        database, "reduced-previous"
    ),
    "approximate": lambda database: approx_full_disjunction_sets(database, APPROXIMATE, 1.0),
    "ranked": lambda database: (
        tuple_set
        for tuple_set, _ in priority_incremental_fd(
            database, MaxRanking(tourist_importance(), default=0.0)
        )
    ),
}


def _oracle(driver, database):
    if driver == "approximate":
        return naive_approx_full_disjunction(database, APPROXIMATE, 1.0)
    return naive_full_disjunction(database)


#: Each change as (rebuilds the catalog, the change).
CHANGES = {
    "compact": (True, lambda database: database.compact()),
    "add_relation": (
        True,
        lambda database: database.add_relation(
            Relation.from_rows("Guides", ["Country", "Guide"], [["Canada", "Ann"]])
        ),
    ),
    "behind the back": (
        True,
        lambda database: database.relation("Sites").add(["Canada", "Toronto", "CN Tower"]),
    ),
    "add_tuple": (
        False,
        lambda database: database.add_tuple("Sites", ["Canada", "Toronto", "CN Tower"]),
    ),
    "remove_tuple": (False, lambda database: database.remove_tuple("Sites", "s4")),
    "update_tuple": (
        False,
        lambda database: database.update_tuple("Sites", "s3", ["UK", "London", "Tower Bridge"]),
    ),
}


@pytest.mark.parametrize("change", list(CHANGES))
@pytest.mark.parametrize("driver", list(DRIVERS))
def test_a_rebuild_under_a_running_query_is_an_error(driver, change):
    database = tourist_database()
    run = DRIVERS[driver](database)
    next(run)
    rebuilds, apply_change = CHANGES[change]
    before = database.catalog_rebuilds
    apply_change(database)
    if rebuilds:
        with pytest.raises(DatabaseError, match="restart the query"):
            next(run)
    else:
        assert list(run)  # the run goes on in its catalog
        assert database.catalog_rebuilds == before
    assert labels_of(DRIVERS[driver](database)) == labels_of(_oracle(driver, database))


@pytest.mark.parametrize("driver", [driver for driver in DRIVERS if driver != "ranked"])
def test_a_rebuild_between_passes_is_an_error(driver):
    """Every answer of the tourist database comes from the first pass, so
    the pull after the sixth starts the next pass, which checks the run's
    catalog before it builds anything."""
    database = tourist_database()
    run = DRIVERS[driver](database)
    assert len([next(run) for _ in range(6)]) == 6
    database.compact()
    with pytest.raises(DatabaseError, match="restart the query"):
        next(run)
