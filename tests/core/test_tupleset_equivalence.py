"""Randomized cross-checks: bitset (interned) representation vs. the reference.

The bitset ``TupleSet`` fast paths and the indexed store layer must be
observationally identical to the retained reference implementations — the
uninterned dictionary/BFS paths of :class:`repro.core.tupleset.TupleSet`, the
plain ``Incomplete`` list of :mod:`repro.core.pools` and the literal
``Complete`` list of ``tests/core/reference_store.py``.  These tests generate random
workloads and compare the two side by side, operation by operation and
end to end.
"""

from __future__ import annotations

import random

import pytest

from repro.core.incremental import get_next_result
from repro.core.full_disjunction import full_disjunction
from repro.core.pools import ListIncompletePool as ReferenceIncompletePool
from repro.core.scanner import TupleScanner
from repro.core.tupleset import TupleSet
from repro.workloads.generators import chain_database, random_database, star_database
from repro.workloads.tourist import tourist_database

from tests.core.reference_store import CompleteStore as ReferenceCompleteStore


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
    """Grow a JCC set greedily on the reference (uninterned) path."""
    current = TupleSet.singleton(rng.choice(all_tuples))
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
        reference = TupleSet(members)
        interned = TupleSet(members, catalog=catalog)
        assert interned.is_interned
        assert interned == reference
        assert interned.is_join_consistent == reference.is_join_consistent
        assert interned.is_connected == reference.is_connected
        assert interned.is_jcc == reference.is_jcc


@pytest.mark.parametrize("name,database", WORKLOADS, ids=WORKLOAD_IDS)
def test_subset_relations_match_reference(name, database):
    catalog = database.catalog()
    all_tuples = list(database.tuples())
    rng = random.Random(7)
    for _ in range(80):
        first = _random_subset(rng, all_tuples)
        second = _random_subset(rng, all_tuples)
        if rng.random() < 0.3:
            second = first + second  # force genuine subset pairs regularly
        plain_a, plain_b = TupleSet(first), TupleSet(second)
        bits_a = TupleSet(first, catalog=catalog)
        bits_b = TupleSet(second, catalog=catalog)
        assert bits_a.issubset(bits_b) == plain_a.issubset(plain_b)
        assert bits_a.issuperset(bits_b) == plain_a.issuperset(plain_b)
        # Mixed representations must agree too (they fall back to tuples).
        assert bits_a.issubset(plain_b) == plain_a.issubset(plain_b)


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
    """The FD(R) driver run entirely on the reference pools and uninterned sets."""
    results = []
    for index, relation in enumerate(database.relations):
        earlier = {r.name for r in database.relations[:index]}
        scanner = TupleScanner(database)
        incomplete = ReferenceIncompletePool(relation.name)
        for t in relation:
            incomplete.add(TupleSet.singleton(t))
        complete = ReferenceCompleteStore(relation.name)
        while incomplete:
            result = get_next_result(
                database, relation.name, incomplete, complete, scanner
            )
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
# four-way suite: reference (dict/BFS) vs big-int vs packed kernels,
# the packed kernel on both mirror backings (RAM arrays and mapped file)
# --------------------------------------------------------------------- #
from repro.core.kernels import numpy_available, use_kernel  # noqa: E402
from repro.core.store import CompleteStore  # noqa: E402

#: (kernel, mirror backing) pairs; every mode must agree with the
#: uninterned dict/BFS reference the tests below compute inline.
KERNEL_MODES = [("bigint", "ram")]
if numpy_available():
    KERNEL_MODES += [("packed", "ram"), ("packed", "mmap")]
KERNEL_MODE_IDS = [f"{kernel}-{backing}" for kernel, backing in KERNEL_MODES]

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


def _mode_database(name, backing, tmp_path):
    database = WORKLOAD_FACTORIES[name]()
    if backing == "mmap":
        mirror = database.catalog().save_mirror(str(tmp_path / f"{name}.rpmc"))
        assert mirror.backing == "mmap"
    return database



def _vectorized(kernel):
    """Zero the packed kernel's small-batch cutoff so the vectorized path
    runs even on these small workloads (below it the kernel delegates to
    the big-int reference)."""
    if hasattr(kernel, "MIN_DEAD"):
        kernel.MIN_DEAD = 0
    return kernel


def _sorted(tuples):
    return sorted(tuples, key=lambda t: (t.relation_name, t.label))


@pytest.mark.parametrize("kernel,backing", KERNEL_MODES, ids=KERNEL_MODE_IDS)
@pytest.mark.parametrize("name", WORKLOAD_IDS)
def test_inner_loop_tests_match_reference_under_every_kernel(
    name, kernel, backing, tmp_path
):
    """union_is_jcc / can_absorb / maximal_jcc_subset_with, three ways.

    The uninterned dict/BFS reference and the interned big-int fast path —
    on RAM and mapped-file mirrors, under each kernel — must all give the
    same answer on the same random JCC sets.
    """
    database = _mode_database(name, backing, tmp_path)
    catalog = database.catalog()
    all_tuples = list(database.tuples())
    rng = random.Random(271)
    jcc_sets = [_random_jcc_set(rng, all_tuples) for _ in range(12)]
    interned = [TupleSet(ts.tuples, catalog=catalog) for ts in jcc_sets]
    with use_kernel(kernel):
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


@pytest.mark.parametrize("kernel,backing", KERNEL_MODES, ids=KERNEL_MODE_IDS)
@pytest.mark.parametrize("name", WORKLOAD_IDS)
def test_contains_superset_batch_matches_reference_under_every_kernel(
    name, kernel, backing, tmp_path
):
    database = _mode_database(name, backing, tmp_path)
    catalog = database.catalog()
    all_tuples = list(database.tuples())
    rng = random.Random(137)
    with use_kernel(kernel) as active:
        _vectorized(active)
        reference_store = ReferenceCompleteStore(None)
        store = CompleteStore(anchor_relation=None, use_index=True)
        stored = [
            TupleSet(_random_jcc_set(rng, all_tuples).tuples, catalog=catalog)
            for _ in range(10)
        ]
        for ts in stored:
            reference_store.add(TupleSet(ts.tuples))
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
                reference_store.contains_superset(TupleSet(p.tuples)) for p in probes
            ]
            assert store.contains_superset_batch(probes, anchor=anchor) == expected


@pytest.mark.parametrize("kernel,backing", KERNEL_MODES, ids=KERNEL_MODE_IDS)
def test_retraction_matches_reference_under_every_kernel(kernel, backing, tmp_path):
    """remove_tuple / update_tuple sweeps, three ways.

    After each mutation the tombstone test and the kernel's dead-tuple
    sweep must flag exactly the sets a per-member Python scan flags —
    including when the tombstone bits live in a mapped mirror file.
    """
    database = chain_database(
        relations=3, tuples_per_relation=5, domain_size=3, null_rate=0.2, seed=41
    )
    if backing == "mmap":
        mirror = database.catalog().save_mirror(str(tmp_path / "retract.rpmc"))
        assert mirror.backing == "mmap"
    catalog = database.catalog()
    all_tuples = list(database.tuples())
    rng = random.Random(43)
    sets = [
        TupleSet(_random_jcc_set(rng, all_tuples).tuples, catalog=catalog)
        for _ in range(10)
    ]
    with use_kernel(kernel) as active:
        _vectorized(active)
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
            expected_dead = [any(t in dead for t in ts.tuples) for ts in sets]
            assert [ts.contains_tombstoned(catalog) for ts in sets] == expected_tombstoned
            assert active.batch_contains_dead(sets, dead) == expected_dead


def test_union_across_two_catalogs_interns_in_the_wider_one():
    """Regression: ``a.union(b)`` must also try ``b``'s catalog.

    ``a`` is interned in a catalog snapshot taken *before* new tuples
    arrived; ``b`` is interned in the current catalog, which can describe
    both operands.  The union used to try only ``a``'s catalog, silently
    de-interning the result (and with it every downstream bitset fast
    path).
    """
    database = chain_database(
        relations=3, tuples_per_relation=4, domain_size=3, null_rate=0.2, seed=19
    )
    old_catalog = database.catalog()
    old_tuple = next(iter(database.relations[0]))
    a = TupleSet.singleton(old_tuple).attach_catalog(old_catalog)
    assert a.is_interned

    # Add behind the database's back: the cached catalog goes stale and the
    # next catalog() call is a full rebuild — a genuinely *different*
    # snapshot, unlike add_tuple's in-place extension.
    fresh = database.relations[1].add(
        [1 for _ in database.relations[1].schema], label="late"
    )
    new_catalog = database.catalog()
    assert new_catalog is not old_catalog
    b = TupleSet.singleton(fresh).attach_catalog(new_catalog)
    assert b.is_interned
    assert new_catalog.id_of(fresh) is not None
    assert old_catalog.id_of(fresh) is None  # a's catalog cannot describe b

    for union in (a.union(b), b.union(a)):
        assert union.tuples == a.tuples | b.tuples
        assert union.is_interned, "union fell off the bitset fast path"
        assert union._catalog is new_catalog


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
