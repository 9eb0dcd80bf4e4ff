"""Randomized cross-checks: the interned ``TupleSet`` vs. the reference.

The bitset :class:`repro.core.tupleset.TupleSet` and the indexed store layer
must be observationally identical to the retained reference
implementations — the dictionary/BFS
:class:`~tests.core.reference_tupleset.ReferenceTupleSet` and the literal
``Incomplete`` and ``Complete`` lists of ``tests/core/reference_store.py``.
These tests generate random workloads and compare the two side by side,
operation by operation and end to end: the end-to-end reference run drives
the per-tuple step of ``tests/core/reference_step.py`` over reference sets
and the reference containers only.
"""

from __future__ import annotations

import os
import random
from unittest import mock

import pytest

from repro.core.full_disjunction import full_disjunction
from repro.core.scanner import TupleScanner
from repro.core.tupleset import TupleSet
from repro.relational.catalog import Catalog
from repro.workloads.generators import chain_database, random_database, star_database
from repro.workloads.tourist import tourist_database

from tests.core.reference_step import reference_get_next_result
from tests.core.reference_store import CompleteStore as ReferenceCompleteStore
from tests.core.reference_store import IncompleteList as ReferenceIncompleteList
from tests.core.reference_tupleset import ReferenceTupleSet


def _workloads():
    yield "tourist", tourist_database()
    yield "chain", chain_database(
        relations=3, tuples_per_relation=5, domain_size=3, null_rate=0.2, seed=7
    )
    yield "star", star_database(spokes=3, tuples_per_relation=4, hub_domain=2, seed=11)
    for seed in (0, 1, 2):
        yield f"random-{seed}", random_database(
            relations=3,
            attributes=5,
            arity=3,
            tuples_per_relation=4,
            domain_size=2,
            null_rate=0.25,
            seed=seed,
        )


WORKLOADS = list(_workloads())
WORKLOAD_IDS = [name for name, _ in WORKLOADS]


def _random_subset(rng, all_tuples, max_size=5):
    size = rng.randint(0, min(len(all_tuples), max_size))
    return rng.sample(all_tuples, size)


def _random_jcc_set(rng, all_tuples):
    """Grow a JCC set greedily on the reference."""
    current = ReferenceTupleSet.singleton(rng.choice(all_tuples))
    for t in rng.sample(all_tuples, len(all_tuples)):
        if rng.random() < 0.6 and current.can_absorb(t):
            current = current.with_tuple(t)
    return current


@pytest.mark.parametrize("name,database", WORKLOADS, ids=WORKLOAD_IDS)
def test_predicates_match_reference_on_random_subsets(name, database):
    catalog = database.catalog()
    all_tuples = list(database.tuples())
    rng = random.Random(42)
    for _ in range(120):
        members = _random_subset(rng, all_tuples)
        reference = ReferenceTupleSet(members)
        interned = TupleSet(members, catalog=catalog)
        assert interned.tuples == reference.tuples
        assert interned.is_join_consistent == reference.is_join_consistent
        assert interned.is_connected == reference.is_connected
        assert interned.is_jcc == reference.is_jcc


@pytest.mark.parametrize("name,database", WORKLOADS, ids=WORKLOAD_IDS)
def test_subset_relations_match_reference(name, database):
    catalog = database.catalog()
    second_catalog = Catalog(database)
    all_tuples = list(database.tuples())
    rng = random.Random(7)
    for _ in range(80):
        first = _random_subset(rng, all_tuples)
        second = _random_subset(rng, all_tuples)
        if rng.random() < 0.3:
            second = first + second  # force genuine subset pairs regularly
        plain_a, plain_b = ReferenceTupleSet(first), ReferenceTupleSet(second)
        bits_a = TupleSet(first, catalog=catalog)
        bits_b = TupleSet(second, catalog=catalog)
        assert bits_a.issubset(bits_b) == plain_a.issubset(plain_b)
        assert bits_a.issuperset(bits_b) == plain_a.issuperset(plain_b)
        # Sets of two catalogs compare their member tuples.
        assert bits_a.issubset(TupleSet(second, second_catalog)) == plain_a.issubset(plain_b)


@pytest.mark.parametrize("name,database", WORKLOADS, ids=WORKLOAD_IDS)
def test_inner_loop_tests_match_reference_on_jcc_sets(name, database):
    catalog = database.catalog()
    all_tuples = list(database.tuples())
    rng = random.Random(99)
    jcc_sets = [_random_jcc_set(rng, all_tuples) for _ in range(25)]
    interned_sets = [TupleSet(ts.tuples, catalog=catalog) for ts in jcc_sets]

    for reference, interned in zip(jcc_sets, interned_sets):
        for t in all_tuples:
            assert interned.can_absorb(t) == reference.can_absorb(t), (
                f"can_absorb diverges on {t!r} against {reference!r}"
            )
            assert (
                interned.maximal_jcc_subset_with(t).tuples
                == reference.maximal_jcc_subset_with(t).tuples
            ), f"maximal_jcc_subset_with diverges on {t!r} against {reference!r}"

    for i, (ref_a, bits_a) in enumerate(zip(jcc_sets, interned_sets)):
        for ref_b, bits_b in zip(jcc_sets[i:], interned_sets[i:]):
            assert bits_a.union_is_jcc(bits_b) == ref_a.union_is_jcc(ref_b), (
                f"union_is_jcc diverges on {ref_a!r} vs {ref_b!r}"
            )


def _reference_full_disjunction(database):
    """The FD(R) driver run entirely on the reference step, the reference
    containers and reference sets."""
    results = []
    for index, relation in enumerate(database.relations):
        earlier = {r.name for r in database.relations[:index]}
        scanner = TupleScanner(database)
        incomplete = ReferenceIncompleteList(relation.name)
        for t in relation:
            incomplete.add(ReferenceTupleSet.singleton(t))
        complete = ReferenceCompleteStore(relation.name)
        while incomplete:
            result = reference_get_next_result(
                database, relation.name, incomplete, complete, scanner
            )
            assert isinstance(result, ReferenceTupleSet)
            complete.add(result)
            if any(result.contains_tuple_from(name) for name in earlier):
                continue
            results.append(result)
    return results


@pytest.mark.parametrize("name,database", WORKLOADS, ids=WORKLOAD_IDS)
@pytest.mark.parametrize("use_index", [False, True], ids=["plain", "indexed"])
def test_engine_output_matches_reference_run(name, database, use_index):
    reference = {ts.tuples for ts in _reference_full_disjunction(database)}
    engine = {ts.tuples for ts in full_disjunction(database, use_index=use_index)}
    assert engine == reference


# --------------------------------------------------------------------- #
# reference (dict/BFS) vs big-int bitsets, with no mirror and on both
# mirror backings (RAM arrays and a mapped file)
# --------------------------------------------------------------------- #
from repro.core.pools import holding_dead  # noqa: E402
from repro.core.store import CompleteStore  # noqa: E402
from repro.relational.packed_mirror import numpy_available  # noqa: E402

#: Mirror backings ("none": the catalog's big ints alone); each must agree
#: with the dict/BFS ``ReferenceTupleSet``.
BACKINGS = ["none", "ram", "mmap"] if numpy_available() else ["none"]

#: Deterministic builders so mmap modes get a private database instance
#: (its catalog mirror lives in a file under the test's tmp_path).
WORKLOAD_FACTORIES = {
    "tourist": tourist_database,
    "chain": lambda: chain_database(
        relations=3, tuples_per_relation=5, domain_size=3, null_rate=0.2, seed=7
    ),
    "star": lambda: star_database(
        spokes=3, tuples_per_relation=4, hub_domain=2, seed=11
    ),
}
for _seed in (0, 1, 2):
    WORKLOAD_FACTORIES[f"random-{_seed}"] = lambda _seed=_seed: random_database(
        relations=3,
        attributes=5,
        arity=3,
        tuples_per_relation=4,
        domain_size=2,
        null_rate=0.25,
        seed=_seed,
    )


def _attach_mirror(database, backing, path):
    """Give ``database``'s catalog the requested mirror, maintained from
    then on by every append and tombstone."""
    catalog = database.catalog()
    if backing == "mmap":
        mirror = catalog.save_mirror(str(path))
    elif backing == "ram":
        # Pin the RAM arm even when the ambient environment would
        # auto-select the file backing.
        with mock.patch.dict(os.environ, {"REPRO_MMAP": "off"}):
            mirror = catalog.packed_mirror()
    else:
        return
    assert mirror.backing == backing


def _mode_database(name, backing, tmp_path):
    database = WORKLOAD_FACTORIES[name]()
    _attach_mirror(database, backing, tmp_path / f"{name}.rpmc")
    return database



def _sorted(tuples):
    return sorted(tuples, key=lambda t: (t.relation_name, t.label))


@pytest.mark.parametrize("backing", BACKINGS)
@pytest.mark.parametrize("name", WORKLOAD_IDS)
def test_inner_loop_tests_match_reference_on_every_backing(name, backing, tmp_path):
    """union_is_jcc / can_absorb / maximal_jcc_subset_with, both ways.

    The dict/BFS reference and the interned big-int sets — with no mirror,
    a RAM mirror or a mapped-file mirror — must give the same answer on the
    same random JCC sets.
    """
    database = _mode_database(name, backing, tmp_path)
    catalog = database.catalog()
    all_tuples = list(database.tuples())
    rng = random.Random(271)
    jcc_sets = [_random_jcc_set(rng, all_tuples) for _ in range(12)]
    interned = [TupleSet(ts.tuples, catalog=catalog) for ts in jcc_sets]
    for reference, bits in zip(jcc_sets, interned):
        for t in all_tuples:
            assert bits.can_absorb(t) == reference.can_absorb(t)
            assert (
                bits.maximal_jcc_subset_with(t).tuples
                == reference.maximal_jcc_subset_with(t).tuples
            )
    for candidate_ref, candidate in zip(jcc_sets, interned):
        for waiting_ref, waiting in zip(jcc_sets, interned):
            assert waiting.union_is_jcc(candidate) == (
                waiting_ref.union_is_jcc(candidate_ref)
            )


@pytest.mark.parametrize("backing", BACKINGS)
@pytest.mark.parametrize("name", WORKLOAD_IDS)
def test_contains_superset_batch_matches_reference_on_every_backing(name, backing, tmp_path):
    database = _mode_database(name, backing, tmp_path)
    catalog = database.catalog()
    all_tuples = list(database.tuples())
    rng = random.Random(137)
    reference_store = ReferenceCompleteStore(None)
    store = CompleteStore(anchor_relation=None, use_index=True)
    stored = [
        TupleSet(_random_jcc_set(rng, all_tuples).tuples, catalog=catalog)
        for _ in range(10)
    ]
    for ts in stored:
        reference_store.add(ReferenceTupleSet(ts.tuples))
        store.add(ts)
    for _ in range(25):
        donor = rng.choice(stored)
        members = rng.sample(_sorted(donor.tuples), rng.randint(1, len(donor)))
        anchor = members[0]
        probes = [
            TupleSet(members, catalog=catalog),
            TupleSet(
                _random_jcc_set(rng, all_tuples).with_tuple(anchor).tuples
                if rng.random() < 0.5
                else members,
                catalog=catalog,
            ),
        ]
        expected = [
            reference_store.contains_superset(ReferenceTupleSet(p.tuples)) for p in probes
        ]
        assert store.contains_superset_batch(probes, anchor=anchor) == expected


@pytest.mark.parametrize("backing", BACKINGS)
def test_retraction_matches_reference_on_every_backing(backing, tmp_path):
    """remove_tuple / update_tuple sweeps, both ways.

    After each mutation the tombstone test and the eviction sweep must flag
    exactly the sets a per-member Python scan flags — including when the
    catalog also maintains its tombstone bits in a RAM or mapped mirror.
    """
    database = chain_database(
        relations=3, tuples_per_relation=5, domain_size=3, null_rate=0.2, seed=41
    )
    _attach_mirror(database, backing, tmp_path / "retract.rpmc")
    catalog = database.catalog()
    all_tuples = list(database.tuples())
    rng = random.Random(43)
    sets = [
        TupleSet(_random_jcc_set(rng, all_tuples).tuples, catalog=catalog)
        for _ in range(10)
    ]
    for step in range(8):
        live = [t for t in database.tuples() if not catalog.is_tombstoned(t)]
        victim = rng.choice(live)
        if step % 2:
            database.update_tuple(
                victim.relation_name,
                victim.label,
                [rng.choice([1, 2, 3]) for _ in victim.values],
            )
        else:
            database.remove_tuple(victim.relation_name, victim.label)
        dead = {t for t in all_tuples if catalog.is_tombstoned(t)}
        expected_tombstoned = [
            any(catalog.is_tombstoned(t) for t in ts.tuples) for ts in sets
        ]
        expected_dead = [ts for ts in sets if any(t in dead for t in ts.tuples)]
        assert [ts.contains_tombstoned() for ts in sets] == expected_tombstoned
        assert holding_dead(sets, dead) == expected_dead


def test_tourist_table2_output_is_unchanged():
    """The paper's Table 2 workload: the six known result sets, exactly."""
    database = tourist_database()
    expected = {
        frozenset({"c1", "a1"}),
        frozenset({"c1", "a2", "s1"}),
        frozenset({"c1", "s2"}),
        frozenset({"c2", "s3"}),
        frozenset({"c2", "s4"}),
        frozenset({"c3", "a3"}),
    }
    for use_index in (False, True):
        produced = {ts.labels() for ts in full_disjunction(database, use_index=use_index)}
        assert produced == expected
