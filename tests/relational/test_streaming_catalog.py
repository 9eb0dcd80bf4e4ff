"""Append-only catalog maintenance vs. from-scratch rebuilds.

``Database.add_tuple`` must leave the cached catalog *equivalent* to a fresh
``Catalog(database)`` after every single arrival: same relation ids, a
bijection between tuple ids, and bitmatrices that map under that bijection
(arrival order and scan order may assign different dense ids — a fresh build
numbers relation-major — so equality is checked up to the id bijection, and
literally when the orders coincide).
"""

from __future__ import annotations

import random

import pytest

from repro.core.full_disjunction import full_disjunction
from repro.relational.catalog import Catalog
from repro.relational.database import Database
from repro.relational.nulls import NULL
from repro.relational.relation import Relation
from repro.workloads.generators import chain_database, random_database, star_database


def _permute_mask(mask, mapping):
    permuted = 0
    while mask:
        low = mask & -mask
        permuted |= 1 << mapping[low.bit_length() - 1]
        mask ^= low
    return permuted


def assert_catalogs_equivalent(appended: Catalog, rebuilt: Catalog, database: Database):
    """The appended catalog must match a rebuild up to the tuple-id bijection."""
    assert appended.relation_count == rebuilt.relation_count
    assert appended.tuple_count == rebuilt.tuple_count == database.tuple_count()
    mapping = {}
    for t in database.tuples():
        appended_gid = appended.id_of(t)
        rebuilt_gid = rebuilt.id_of(t)
        assert appended_gid is not None and rebuilt_gid is not None
        mapping[appended_gid] = rebuilt_gid
        assert appended.relation_of_tuple(appended_gid) == rebuilt.relation_of_tuple(
            rebuilt_gid
        )
    assert sorted(mapping.values()) == list(range(rebuilt.tuple_count))
    for rid in range(appended.relation_count):
        assert appended.adjacency_mask(rid) == rebuilt.adjacency_mask(rid)
        assert _permute_mask(
            appended.relation_tuples_mask(rid), mapping
        ) == rebuilt.relation_tuples_mask(rid)
    for gid in range(appended.tuple_count):
        assert _permute_mask(
            appended.consistent_mask(gid), mapping
        ) == rebuilt.consistent_mask(mapping[gid])


def _fresh_copy(database: Database) -> Database:
    """The same contents, built from scratch (fresh catalog, fresh ids)."""
    copy = Database()
    for relation in database.relations:
        fresh = Relation(relation.name, relation.schema)
        for t in relation:
            fresh.add(t.values, label=t.label)
        copy.add_relation(fresh)
    return copy


def _arrival_pool(rng, database, count):
    """Random arrivals drawn from each relation's existing value shapes."""
    arrivals = []
    names = database.relation_names
    for _ in range(count):
        name = rng.choice(names)
        relation = database.relation(name)
        values = [
            rng.choice([None, f"v{rng.randrange(3)}"])
            for _ in relation.schema.attributes
        ]
        arrivals.append((name, values))
    return arrivals


@pytest.mark.parametrize(
    "factory,seed",
    [
        (lambda: chain_database(relations=3, tuples_per_relation=3, domain_size=3,
                                null_rate=0.2, seed=1), 10),
        (lambda: star_database(spokes=3, tuples_per_relation=3, hub_domain=2,
                               seed=2), 20),
        (lambda: random_database(relations=3, attributes=5, arity=3,
                                 tuples_per_relation=3, domain_size=2,
                                 null_rate=0.2, seed=3), 30),
    ],
    ids=["chain", "star", "random"],
)
def test_randomized_streaming_ingest_matches_rebuild(factory, seed):
    database = factory()
    rng = random.Random(seed)
    appended = database.catalog()
    assert database.catalog_rebuilds == 1
    for relation_name, values in _arrival_pool(rng, database, 12):
        database.add_tuple(relation_name, values)
        # The cached snapshot was extended, not invalidated...
        assert database.catalog() is appended
        assert database.catalog_rebuilds == 1
        # ...and is equivalent to a from-scratch rebuild after every arrival.
        assert_catalogs_equivalent(appended, Catalog(database), database)
        # The engines see identical result sets through either catalog.
        streamed = {ts.labels() for ts in full_disjunction(database, use_index=True)}
        rebuilt = {ts.labels() for ts in full_disjunction(_fresh_copy(database))}
        assert streamed == rebuilt


#: Values whose equality is easy to get wrong: nulls, NaN (one shared object
#: and fresh ones), ints equal to floats and bools, and look-alike strings.
SHARED_NAN = float("nan")
AWKWARD_VALUES = [None, NULL, SHARED_NAN, "nan", 1, 1.0, True, "1", 2, "a"]


@pytest.mark.parametrize("seed", range(4))
def test_hash_grouped_build_matches_pairwise_appends(seed):
    """The build groups tuples on shared values; appends test every pair.

    R1 and R2 share two attributes, R3 shares one with each, so the build
    joins on one- and two-attribute keys over awkward values.
    """
    rng = random.Random(seed)
    database = Database(
        [
            Relation("R1", ["A", "B", "X"]),
            Relation("R2", ["A", "B", "Y"]),
            Relation("R3", ["B", "C"]),
        ]
    )
    appended = database.catalog()
    # A fixed prefix pins the hazards down: the same NaN object on both
    # sides of a two-attribute key, and 1 / 1.0 / True on one key.
    arrivals = [
        ("R1", [SHARED_NAN, 1, "x"]),
        ("R2", [SHARED_NAN, 1.0, "y"]),
        ("R2", ["a", True, "y"]),
        ("R1", ["a", 1.0, "x"]),
        ("R3", [1, "c"]),
    ]
    for row in range(14):
        name = rng.choice(database.relation_names)
        values = []
        for attribute in database.relation(name).schema.attributes:
            value = rng.choice(AWKWARD_VALUES)
            if value is SHARED_NAN and rng.random() < 0.5:
                value = float("nan")
            values.append(f"x{row}" if attribute in ("X", "Y") else value)
        arrivals.append((name, values))
    for name, values in arrivals:
        database.add_tuple(name, values)
        assert database.catalog() is appended
        assert_catalogs_equivalent(appended, Catalog(database), database)
    streamed = {ts.labels() for ts in full_disjunction(database, use_index=True)}
    rebuilt = {ts.labels() for ts in full_disjunction(_fresh_copy(database))}
    assert streamed == rebuilt


def test_interned_sets_survive_appends():
    database = chain_database(relations=3, tuples_per_relation=3, domain_size=2, seed=4)
    catalog = database.catalog()
    before = full_disjunction(database, use_index=True)
    masks = [(ts.id_mask, ts.relation_mask) for ts in before]
    database.add_tuple("R2", ["v0", "v1", "p_new"])
    # Appending never renumbers: masks taken before the arrival are unchanged
    # and still decode to the same tuples.
    for tuple_set, (id_mask, relation_mask) in zip(before, masks):
        assert tuple_set.id_mask == id_mask
        assert tuple_set.relation_mask == relation_mask
        assert set(catalog.tuples_of_mask(id_mask)) == set(tuple_set.tuples)


def test_adding_behind_the_databases_back_still_rebuilds():
    database = chain_database(relations=2, tuples_per_relation=3, domain_size=2, seed=5)
    first = database.catalog()
    assert database.catalog_rebuilds == 1
    # Bypassing add_tuple leaves the snapshot stale; the next catalog() call
    # notices and rebuilds, exactly as before this feature existed.
    database.relation("R1").add(["v0", "v1", "p_direct"])
    second = database.catalog()
    assert second is not first
    assert database.catalog_rebuilds == 2
    assert second.tuple_count == database.tuple_count()


def test_adding_a_relation_still_rebuilds():
    database = chain_database(relations=2, tuples_per_relation=3, domain_size=2, seed=6)
    database.catalog()
    database.add_relation(Relation("R3", ["A2", "A3"]))
    database.catalog()
    assert database.catalog_rebuilds == 2


def test_append_rejects_unknown_relation_and_duplicates():
    database = chain_database(relations=2, tuples_per_relation=2, domain_size=2, seed=7)
    catalog = database.catalog()
    existing = next(iter(database.relation("R1")))
    with pytest.raises(ValueError, match="already catalogued"):
        catalog.append_tuple(existing)
    foreign = Relation("X", ["A0"])
    stray = foreign.add(["v0"])
    with pytest.raises(KeyError):
        catalog.append_tuple(stray)
