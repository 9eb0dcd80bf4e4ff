"""The mask-first ``GetNextResult`` step against the per-tuple reference.

Lines 2–18 run on the catalog's masks (``repro.core.incremental``).  The
reference step in ``tests/core/reference_step.py`` runs them one scanned
tuple at a time, with one tuple set per candidate.  On random star, chain
and skewed databases mutated through ``Database`` (removals, appends,
updates), both steps must produce the same results in the same order, the
same ``Incomplete`` list after every step and equal ``FDStatistics`` — with
the index on and off, restricted to ``R_i, …, R_n`` or not; the reference
runs assert that the reference step took every step, so a swap that failed
cannot compare the mask step with itself.  The ranked engine must
produce the same stream and the same queues after every answer.  The
default seeds, handed to the pool as one gid mask and built lazily, must
match the same singletons added one set at a time.  Line 14's test by
the survivor's consistency closure must merge exactly when
``union_is_jcc_mask`` holds, on every JCC pair.  Unit tests
pin the Lines 10–18 edge cases: a merge whose union is already waiting,
tombstoned namesakes, and the reference ``Complete`` store.
The mask step's exactness rests on scan order being gid order within a
relation; an invariant test pins that down through every mutation path.
"""

from __future__ import annotations

import itertools
import random
from contextlib import nullcontext

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import incremental as incremental_module
from repro.core.incremental import (
    FDStatistics,
    get_next_result,
    incremental_fd,
)
from repro.core.priority import PriorityState
from repro.core.ranking import MaxRanking
from repro.core.scanner import BlockScanner, TupleScanner
from repro.core.store import CompleteStore, ListIncompletePool, PriorityIncompletePool
from repro.core.tupleset import TupleSet
from repro.relational.database import Database
from repro.relational.nulls import NULL
from repro.relational.packed_mirror import numpy_available
from repro.workloads.generators import (
    chain_database,
    skewed_chain_database,
    star_database,
)
from repro.workloads.tourist import tourist_database

from tests.core.reference_step import reference_get_next_result, reference_step
from tests.core.reference_store import CompleteStore as ReferenceCompleteStore

PROPERTY = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _base_database(kind: str, seed: int) -> Database:
    if kind == "star":
        return star_database(
            spokes=3, tuples_per_relation=4, hub_domain=2, null_rate=0.1, seed=seed
        )
    if kind == "chain":
        return chain_database(
            relations=4, tuples_per_relation=4, domain_size=3, null_rate=0.15, seed=seed
        )
    # Six tuples per relation: hot values then leave two or more sets
    # waiting in one anchor bucket often enough to draw.
    return skewed_chain_database(
        relations=3, tuples_per_relation=6, hot_factor=3, domain_size=3,
        null_rate=0.1, seed=seed,
    )


def _mixed_values(rng: random.Random, relation):
    """A row whose cells come from random rows of ``relation`` (or null)."""
    rows = [t.values for t in relation]
    return [
        NULL if rng.random() < 0.1 else rng.choice(rows)[column]
        for column in range(len(relation.schema))
    ]


def mutate(database: Database, rng: random.Random, ops) -> None:
    """Apply removals, appends and updates through the database."""
    for op in ops:
        relation = rng.choice(database.relations)
        if op == "append" or len(relation) < 2:
            database.add_tuple(relation.name, _mixed_values(rng, relation))
        elif op == "remove":
            database.remove_tuple(relation.name, rng.choice(list(relation)).label)
        else:
            victim = rng.choice(list(relation))
            database.update_tuple(
                relation.name, victim.label, _mixed_values(rng, relation)
            )


@st.composite
def mutated_databases(draw):
    kind = draw(st.sampled_from(["star", "chain", "skewed"]))
    database = _base_database(kind, draw(st.integers(0, 10_000)))
    database.catalog()
    ops = draw(st.lists(st.sampled_from(["remove", "append", "update"]), max_size=6))
    mutate(database, random.Random(draw(st.integers(0, 10_000))), ops)
    return database


def _labels(tuple_set):
    return sorted(t.label for t in tuple_set)


def _buckets(incomplete):
    """Each non-empty anchor bucket of an indexed pool, in bucket order: the
    list pool's public view, where a seed not built yet is a bucket of its
    own (the priority pool has no seed block)."""
    if isinstance(incomplete, ListIncompletePool):
        buckets = incomplete.anchor_buckets()
    else:
        buckets = {anchor: bucket for anchor, bucket in incomplete._buckets.items() if bucket}
    return {anchor.label: [_labels(s) for s in bucket] for anchor, bucket in buckets.items()}


def _run(
    database, anchor, restricted,
    initial=None, complete=None, limit=None, reference=False,
):
    """Results (the first ``limit``, when given), the Incomplete list and
    its buckets after every step, the statistics, and the counters of a
    ``complete`` store passed in; on the reference step when ``reference``."""
    skip = ()
    if restricted:
        skip = database.relation_names[: database.index_of(anchor)]
    statistics = FDStatistics()
    pools = []

    def after_step(iteration, result, incomplete, complete):
        pools.append(([_labels(s) for s in incomplete.as_list()], _buckets(incomplete)))

    with reference_step() if reference else nullcontext() as steps:
        results = incremental_fd(
            database,
            anchor,
            scanner=TupleScanner(database, skip),
            statistics=statistics,
            on_iteration=after_step,
            initial=initial,
            complete=complete,
        )
        stream = [_labels(r) for r in itertools.islice(results, limit)]
        results.close()
    if reference:
        assert len(steps) == statistics.results, "a step bypassed the reference"
    shared = None if complete is None else complete.statistics.as_dict()
    return stream, pools, statistics, shared


#: How the property test stocks ``Complete``: the run's own store, a shared
#: empty one, or the reference list of ``tests/core/reference_store.py``.
COMPLETES = ("own", "shared", "reference")


def _complete_factory(kind, database, anchor, choice):
    """A function building a fresh ``Complete`` for one run, or ``None``."""
    if kind == "own":
        return lambda: None
    if kind == "shared":
        return lambda: CompleteStore(anchor)
    return lambda: ReferenceCompleteStore(anchor, use_index=True)


@settings(PROPERTY, max_examples=200)
@given(
    database=mutated_databases(),
    choice=st.randoms(use_true_random=False),
    restricted=st.booleans(),
    seeding=st.sampled_from(["all", "some"]),
    complete_kind=st.sampled_from(COMPLETES),
)
def test_mask_step_matches_the_reference_step(
    database, choice, restricted, seeding, complete_kind
):
    """Seeding only some ``R_i`` singletons leaves anchors whose singleton
    finds no waiting set (a Line 18 insert); the reference ``Complete``
    makes the bulk settle run through the oracle's naive loop."""
    _compare_with_reference(database, choice, restricted, seeding, complete_kind)


def _compare_with_reference(database, choice, restricted, seeding, complete_kind):
    anchor = choice.choice(database.relation_names)
    make_complete = _complete_factory(complete_kind, database, anchor, choice)
    initial = None
    if seeding == "some":
        catalog = database.catalog()
        members = list(database.relation(anchor))
        initial = [
            TupleSet.singleton(t, catalog=catalog)
            for t in choice.sample(members, choice.randint(1, len(members)))
        ]
    shipped = _run(database, anchor, restricted, initial, make_complete())
    reference = _run(
        database, anchor, restricted, initial, make_complete(), reference=True
    )
    assert shipped[0] == reference[0]
    assert shipped[1] == reference[1]
    assert shipped[2] == reference[2]
    assert shipped[3] == reference[3]


@settings(PROPERTY, max_examples=150)
@given(
    database=mutated_databases(),
    choice=st.randoms(use_true_random=False),
    restricted=st.booleans(),
    namesake=st.booleans(),
    limit=st.sampled_from([None, 1, 3]),
)
def test_seeding_by_mask_matches_seeding_set_by_set(
    database, choice, restricted, namesake, limit
):
    """The default seeds, handed to the pool as one gid mask and built
    lazily, against the same singletons passed as ``initial``, which the
    pool adds one set at a time: the same answers in the same order, the
    same ``Incomplete`` list and buckets after every step and equal
    ``FDStatistics``, also when the run stops after ``limit`` answers."""
    if namesake:
        # Update a tuple away and back: its first incarnation is tombstoned
        # and an equal tuple, the live namesake, gets a fresh gid.
        relation = choice.choice(database.relations)
        victim = choice.choice(list(relation))
        values = list(victim.values)
        database.update_tuple(relation.name, victim.label, _mixed_values(choice, relation))
        database.update_tuple(relation.name, victim.label, values)
    anchor = choice.choice(database.relation_names)
    catalog = database.catalog()
    seeds = [TupleSet.singleton(t, catalog=catalog) for t in database.relation(anchor)]
    by_mask = _run(database, anchor, restricted, limit=limit)
    by_sets = _run(database, anchor, restricted, initial=seeds, limit=limit)
    assert by_mask[0] == by_sets[0]
    assert by_mask[1] == by_sets[1]
    assert by_mask[2] == by_sets[2]


def test_the_drawn_cases_reach_every_branch_of_the_bulk_settle(monkeypatch):
    """The cases :func:`test_mask_step_matches_the_reference_step` draws
    from reach every branch of the anchor-singleton settle: covered,
    merged into a bucket of one and of two or more waiting sets, and left
    in the stream as an insert; for an anchor after the plan's first
    relation, and through the oracle ``Complete``.  Each case is checked
    against the reference step here too."""
    reached = set()
    case = {}
    requeue_singletons = ListIncompletePool.requeue_singletons
    covered_singletons = CompleteStore.covered_singletons
    reference_covered_singletons = ReferenceCompleteStore.covered_singletons
    survivor_set = incremental_module._survivor_set
    run = _run

    def requeued(pool, anchors, crowded, catalog):
        if case["compared"]:
            if crowded:
                reached.add("merged into a crowded bucket")
            if anchors & ~crowded:
                reached.add("merged")
            if case["later anchor"]:
                reached.add("later anchor")
        return requeue_singletons(pool, anchors, crowded, catalog)

    def covered(store, singletons, catalog):
        outcome = covered_singletons(store, singletons, catalog)
        if case["compared"] and outcome:
            reached.add("covered")
        return outcome

    def reference_covered(store, singletons, catalog):
        reached.add("reference Complete")
        return reference_covered_singletons(store, singletons, catalog)

    def inserted(catalog, mask, gid):
        if mask == 1 << gid and case["compared"]:
            reached.add("inserted")
        return survivor_set(catalog, mask, gid)

    def compared_run(database, anchor, restricted, *rest, reference=False):
        """Record reach only in the shipped run of a comparison."""
        case["later anchor"] = not restricted and database.index_of(anchor) > 0
        case["compared"] = not reference
        try:
            return run(database, anchor, restricted, *rest, reference=reference)
        finally:
            case["compared"] = False

    monkeypatch.setattr(ListIncompletePool, "requeue_singletons", requeued)
    monkeypatch.setattr(CompleteStore, "covered_singletons", covered)
    monkeypatch.setattr(ReferenceCompleteStore, "covered_singletons", reference_covered)
    monkeypatch.setattr(incremental_module, "_survivor_set", inserted)
    monkeypatch.setitem(globals(), "_run", compared_run)
    case["compared"] = False
    for seed in range(48):
        rng = random.Random(seed)
        database = _base_database(["star", "chain", "skewed"][seed % 3], seed)
        database.catalog()
        mutate(database, rng, rng.choices(["remove", "append", "update"], k=seed % 4))
        case["complete"] = COMPLETES[seed // 3 % len(COMPLETES)]
        _compare_with_reference(
            database, rng, seed % 2 == 0, ["all", "some"][seed // 12 % 2], case["complete"]
        )
    assert reached == {
        "covered",
        "merged",
        "merged into a crowded bucket",
        "inserted",
        "later anchor",
        "reference Complete",
    }


@pytest.mark.skipif(not numpy_available(), reason="mirror files need NumPy")
@pytest.mark.parametrize("seed", range(3))
def test_mask_step_on_a_mapped_catalog(seed, tmp_path):
    """Consistency rows served from a mirror file (``_MirrorRows``)."""
    from repro.relational.catalog_file import load_database

    rng = random.Random(seed)
    database = _base_database(["star", "chain", "skewed"][seed], seed)
    database.catalog()
    mutate(database, rng, rng.choices(["remove", "append", "update"], k=6))
    path = str(tmp_path / "mapped.rpmc")
    database.save_mirror(path)
    mapped = load_database(path)
    try:
        assert mapped.catalog().packed_mirror().readonly
        for anchor in mapped.relation_names:
            assert _run(mapped, anchor, True) == _run(mapped, anchor, True, reference=True)
    finally:
        _close_mirror(mapped)
        _close_mirror(database)


def _close_mirror(database: Database) -> None:
    database.catalog().packed_mirror().close()


# --------------------------------------------------------------------- #
# scan order is gid order within a relation
# --------------------------------------------------------------------- #
def _assert_scan_order_is_gid_order(database: Database) -> None:
    catalog = database.catalog()
    live = catalog.live_mask
    for relation in database.relations:
        gids = [catalog.id_of(t) for t in relation]
        assert gids == sorted(gids), relation.name
        mask = catalog.relation_tuples_mask(catalog.relation_id(relation.name)) & live
        assert sum(1 << gid for gid in gids) == mask, relation.name


@pytest.mark.parametrize("seed", range(6))
def test_relations_stay_in_gid_order_through_every_mutation_path(seed, tmp_path):
    rng = random.Random(seed)
    database = _base_database(["star", "chain", "skewed"][seed % 3], seed)
    database.catalog()
    for round_ in range(4):
        mutate(database, rng, rng.choices(["remove", "append", "update"], k=8))
        _assert_scan_order_is_gid_order(database)
        restored = Database.restore_state(database.snapshot_state())
        _assert_scan_order_is_gid_order(restored)
        if numpy_available():
            from repro.relational.catalog_file import load_database

            path = str(tmp_path / f"mirror-{round_}.rpmc")
            restored.save_mirror(path)
            loaded = load_database(path)
            try:
                _assert_scan_order_is_gid_order(loaded)
            finally:
                _close_mirror(loaded)
                _close_mirror(restored)
        if round_ == 2:
            database.compact()
            _assert_scan_order_is_gid_order(database)


# --------------------------------------------------------------------- #
# the tuple loop: a tombstoned member, or a block scanner
# --------------------------------------------------------------------- #
def _drain_both(database, anchor, seeds, scanner_factory):
    """Step a shipped and a reference pool to exhaustion, side by side."""
    runs = []
    for step in (get_next_result, reference_get_next_result):
        incomplete = ListIncompletePool(anchor)
        for seed in seeds:
            incomplete.add(seed)
        complete = CompleteStore(anchor)
        scanner = scanner_factory()
        statistics = FDStatistics()
        trace = []
        while incomplete:
            result = step(database, anchor, incomplete, complete, scanner, statistics)
            complete.add(result)
            trace.append(
                (
                    _labels(result),
                    [_labels(s) for s in incomplete.as_list()],
                    _buckets(incomplete),
                )
            )
        runs.append(
            (
                trace,
                statistics,
                scanner.cost_summary(),
                incomplete.statistics.as_dict(),
                complete.statistics.as_dict(),
            )
        )
    assert runs[0] == runs[1]
    assert runs[0][0], "the pool produced nothing"


class TestFallbacks:
    def test_tombstoned_member(self):
        database = tourist_database()
        catalog = database.catalog()
        accommodation = database.relation("Accommodations").tuple_by_label("a1")
        climates = list(database.relation("Climates"))
        seeds = [
            TupleSet.of(climates[0], accommodation, catalog=catalog),
            *(TupleSet.singleton(t, catalog=catalog) for t in climates[1:]),
        ]
        database.remove_tuple("Accommodations", "a1")
        assert database.current_catalog() is catalog
        assert TupleScanner(database).mask_pass(seeds[0]) is None
        assert TupleScanner(database).mask_pass(seeds[1]) is not None
        _drain_both(database, "Climates", seeds, lambda: TupleScanner(database))

    def test_block_scanner(self):
        database = tourist_database()
        catalog = database.catalog()
        seeds = [
            TupleSet.singleton(t, catalog=catalog) for t in database.relation("Climates")
        ]
        assert BlockScanner(database, 2).mask_pass(seeds[0]) is None
        assert TupleScanner(database).mask_pass(seeds[0]) is not None
        _drain_both(database, "Climates", seeds, lambda: BlockScanner(database, 2))


def test_mask_pass_counts_a_pass_like_a_scan():
    database = tourist_database()
    catalog = database.catalog()
    seed = TupleSet.singleton(database.relation("Climates").tuple_by_label("c1"), catalog=catalog)
    masks, tuples = TupleScanner(database, ["Climates"]), TupleScanner(database, ["Climates"])
    plan = masks.mask_pass(seed)
    list(tuples.scan())
    assert masks.cost_summary() == tuples.cost_summary()
    assert [catalog.relation_name(rid) for rid, _ in plan] == ["Accommodations", "Sites"]


# --------------------------------------------------------------------- #
# merges that change nothing
# --------------------------------------------------------------------- #
def test_union_with_a_subset_is_self():
    database = tourist_database()
    catalog = database.catalog()
    c1, a1 = (database.tuple_by_label(label) for label in ("c1", "a1"))
    whole = TupleSet.of(c1, a1, catalog=catalog)
    assert whole.union(TupleSet.singleton(a1, catalog=catalog)) is whole
    assert whole.union(whole) is whole
    grown = TupleSet.singleton(c1, catalog=catalog).union(whole)
    assert grown == whole and grown is not whole


def test_replace_with_itself_moves_the_set_to_the_end_of_its_bucket():
    database = tourist_database()
    catalog = database.catalog()
    c1 = database.tuple_by_label("c1")
    first = TupleSet.singleton(c1, catalog=catalog)
    second = TupleSet.of(c1, database.tuple_by_label("a1"), catalog=catalog)
    other = TupleSet.singleton(database.tuple_by_label("c2"), catalog=catalog)
    pool = ListIncompletePool("Climates")
    for tuple_set in (first, other, second):
        pool.add(tuple_set)
    pool.replace(first, first)
    assert pool.as_list() == [first, other, second]
    assert len(pool) == 3
    assert pool.statistics.replacements == 1
    assert pool.candidates(first) == [second, first]
    missing = TupleSet.singleton(database.tuple_by_label("c3"), catalog=catalog)
    with pytest.raises(KeyError):
        pool.replace(missing, missing)


# --------------------------------------------------------------------- #
# Line 14 by the survivor's consistency closure
# --------------------------------------------------------------------- #
def _jcc_masks(catalog, largest):
    """The gid masks of the JCC sets of 1 to ``largest`` tuples, live or
    tombstoned."""
    for size in range(1, largest + 1):
        for gids in itertools.combinations(range(catalog.tuple_count), size):
            mask = sum(1 << gid for gid in gids)
            if all(
                catalog.pair_consistent(a, b) for a, b in itertools.combinations(gids, 2)
            ) and catalog.relations_connected(catalog.relation_mask_of(mask)):
                yield mask


@st.composite
def updated_back_databases(draw):
    """``mutated_databases``, then maybe one tuple updated away and back, so
    that a tombstoned tuple has a live namesake with a fresh gid."""
    database = draw(mutated_databases())
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 10_000)))
        relation = rng.choice([r for r in database.relations if len(r)])
        victim = rng.choice(list(relation))
        database.update_tuple(relation.name, victim.label, _mixed_values(rng, relation))
        database.update_tuple(relation.name, victim.label, victim.values)
    return database


@settings(PROPERTY, max_examples=15)
@given(database=updated_back_databases())
def test_the_closure_test_is_the_merge_test(database):
    """Line 14 decides a waiting set ``S`` of the survivor's catalog by
    ``S ⊆ C(T')`` and a shared member or relation adjacency; on every JCC
    pair, the empty ``S`` included, it merges exactly when
    ``union_is_jcc_mask`` holds.  The survivors are placed without an
    anchor tuple, so the pool's probe walks every waiting set."""
    catalog = database.catalog()
    masks = list(_jcc_masks(catalog, 3))
    waiting_sets = [TupleSet.empty(catalog=catalog)]
    for mask in masks:
        tuple_set = TupleSet(catalog.tuples_of_mask(mask), catalog=catalog)
        # A dead tuple with a live namesake interns as the namesake: skip it.
        if tuple_set.id_mask == mask:
            waiting_sets.append(tuple_set)
    complete = CompleteStore()
    for waiting in waiting_sets:
        for mask in masks:
            relation_mask = catalog.relation_mask_of(mask)
            gid = mask.bit_length() - 1
            pool = ListIncompletePool(None)
            pool.add(waiting)
            statistics = FDStatistics()
            incremental_module._place_survivors(
                catalog,
                [(mask, relation_mask, gid, None)],
                pool,
                complete,
                statistics,
            )
            expected = waiting.union_is_jcc_mask(mask, relation_mask, catalog)
            assert statistics.candidates_merged == expected, (waiting, mask)


# --------------------------------------------------------------------- #
# the ranked engine: priority pools through the same step
# --------------------------------------------------------------------- #
def _ranked(database, ranking, reference=False):
    """The ranked stream, every queue's members in order after each answer,
    and the statistics; on the reference step when ``reference``."""
    statistics = FDStatistics()
    stream, queues = [], []
    with reference_step() if reference else nullcontext() as steps:
        state = PriorityState(database, ranking, statistics=statistics)
        for result, rank in state.results():
            stream.append((_labels(result), rank))
            queues.append([[_labels(s) for s in pool] for pool in state.pools])
    if reference:
        # A step that re-derives a printed result counts no result.
        assert len(steps) >= statistics.results and bool(steps) == bool(stream)
    return stream, queues, statistics


@PROPERTY
@given(
    database=mutated_databases(),
    importance_seed=st.integers(0, 10_000),
)
def test_ranked_mask_step_matches_the_reference_step(database, importance_seed):
    """Few importance values make many rank ties, so the order in which a
    merge re-pushes a waiting set decides which of the tied sets pops first;
    the queues' member order after each answer shows every re-push."""
    rng = random.Random(importance_seed)
    ranking = MaxRanking({t.label: rng.randrange(3) for t in database.tuples()})
    shipped = _ranked(database, ranking)
    reference = _ranked(database, ranking, reference=True)
    assert shipped[0] == reference[0]
    assert shipped[1] == reference[1]
    assert shipped[2] == reference[2]


# --------------------------------------------------------------------- #
# Lines 10-18 edge cases, one step at a time against the reference
# --------------------------------------------------------------------- #
def _step_both(database, make_pool, waiting, complete_sets):
    """One step of each implementation from the same pool and ``Complete``.

    ``make_pool`` builds an empty pool; ``waiting`` lists its members, the
    set to pop first leading.  Returns the result, the pool afterwards, and
    every counter; the two implementations must also leave each anchor
    bucket in the same order.
    """
    runs = []
    for step in (get_next_result, reference_get_next_result):
        pool = make_pool()
        for tuple_set in waiting:
            pool.add(tuple_set)
        complete = CompleteStore("Climates")
        for tuple_set in complete_sets:
            complete.add(tuple_set)
        statistics = FDStatistics()
        result = step(database, "Climates", pool, complete, TupleScanner(database), statistics)
        runs.append(
            (
                _labels(result),
                [_labels(s) for s in pool.as_list()],
                [_labels(s) for s in pool],
                statistics,
                pool.statistics.as_dict(),
                complete.statistics.as_dict(),
                _buckets(pool),
            )
        )
    assert runs[0] == runs[1]
    return runs[0][:-1]


def _pools():
    importance = {"a1": 9.0}  # the popped set {c1, a1} outranks the rest
    ranking = MaxRanking(importance, default=1.0)
    return {
        "list": lambda: ListIncompletePool("Climates"),
        "priority": lambda: PriorityIncompletePool("Climates", ranking),
    }


@pytest.mark.parametrize("kind", ["list", "priority"])
def test_growing_merge_into_a_union_that_is_already_waiting(kind):
    """The step pops {c1, a1}; its survivor {c1, a2} merges with the first
    waiting set {c1, s1}, and their union {c1, a2, s1} is already waiting:
    the list pool empties {c1, s1}'s slot, the priority pool drops it."""
    database = tourist_database()
    catalog = database.catalog()

    def ts(*labels):
        return TupleSet([database.tuple_by_label(label) for label in labels], catalog=catalog)

    popped, first, union = ts("c1", "a1"), ts("c1", "s1"), ts("c1", "a2", "s1")
    assert TupleScanner(database).mask_pass(popped) is not None
    result, listed, members, statistics, pool_counters, _ = _step_both(
        database, _pools()[kind], [popped, first, union], []
    )
    assert result == ["a1", "c1"]
    assert ["c1", "s1"] not in members and ["a2", "c1", "s1"] in members
    # {c1, s1} ⊆ the union: requeued; {c1, s2} conflicts with s1: inserted.
    assert ["c1", "s2"] in members
    assert statistics.candidates_merged == 2
    assert pool_counters["replacements"] == 2
    if kind == "list":
        # The step's inserts go to the head, in generation order.
        assert listed == [["c2"], ["c3"], ["c1", "s2"], ["a2", "c1", "s1"]]


@pytest.mark.parametrize("use_index", [False, True], ids=["plain", "indexed"])
def test_reference_complete_store_as_complete(use_index):
    """The step accepts the reference ``Complete`` of ``tests/core/reference_store.py``
    and counts its scans as the reference step does."""
    database = tourist_database()
    catalog = database.catalog()
    c1, c2, c3, a1, a2, s1 = (
        database.tuple_by_label(label) for label in ("c1", "c2", "c3", "a1", "a2", "s1")
    )
    runs = []
    for reference in (False, True):
        complete = ReferenceCompleteStore("Climates", use_index=use_index)
        complete.add(TupleSet.of(c1, a1, catalog=catalog))
        complete.add(TupleSet.of(c1, a2, s1, catalog=catalog))
        statistics = FDStatistics()
        with reference_step() if reference else nullcontext() as steps:
            results = [
                _labels(r)
                for r in incremental_fd(
                    database,
                    "Climates",
                    initial=[TupleSet.singleton(c2, catalog), TupleSet.singleton(c3, catalog)],
                    statistics=statistics,
                    complete=complete,
                )
            ]
        assert not reference or len(steps) == statistics.results > 0
        runs.append((results, statistics, complete.statistics.as_dict()))
    assert runs[0] == runs[1]
    assert ["a1", "c1"] not in runs[0][0] and ["a2", "c1", "s1"] not in runs[0][0]
    assert runs[0][1].candidates_subsumed > 0
    assert runs[0][2]["sets_scanned"] > 0


# --------------------------------------------------------------------- #
# the anchor-singleton settle: when the masks may not answer
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", ["list", "priority"])
def test_a_covered_singleton_is_counted_once_whichever_pool(kind):
    """The step pops {c2}; the singleton {c3} lies in a stored result.  The
    list pool settles it in bulk; the priority pool declines, so the
    ``Complete`` side must not have counted it in bulk either."""
    database = tourist_database()
    catalog = database.catalog()
    c2, c3 = (database.tuple_by_label(label) for label in ("c2", "c3"))
    ranking = MaxRanking({"c2": 9.0}, default=1.0)
    pools = {
        "list": lambda: ListIncompletePool("Climates"),
        "priority": lambda: PriorityIncompletePool("Climates", ranking),
    }
    popped = TupleSet.singleton(c2, catalog=catalog)
    stored = TupleSet.of(c3, database.tuple_by_label("a3"), catalog=catalog)
    _, _, _, statistics, _, complete_counters = _step_both(
        database, pools[kind], [popped, TupleSet.singleton(c3, catalog=catalog)], [stored]
    )
    assert statistics.candidates_subsumed == 1
    assert complete_counters["sets_scanned"] == 1


def _namesake(database, label):
    """Update ``label`` away and back: its first incarnation is tombstoned
    and an equal tuple, the live namesake, gets a fresh gid."""
    values = list(database.tuple_by_label(label).values)
    database.update_tuple("Climates", label, [values[0], "changed"])
    return database.update_tuple("Climates", label, values)


def test_a_complete_holding_a_tombstoned_namesake_declines():
    """A stored set holds the first incarnation of c1, a later one its live
    namesake: both sit in one bucket, so the probe scans the stale set
    first and the bulk count of one set would be wrong."""
    database = tourist_database()
    catalog = database.catalog()
    stale = TupleSet.of(
        database.tuple_by_label("c1"), database.tuple_by_label("a1"), catalog=catalog
    )
    live = _namesake(database, "c1")
    assert database.catalog() is catalog and live == stale.tuple_from("Climates")
    fresh = TupleSet.of(live, database.tuple_by_label("a2"), catalog=catalog)
    complete = CompleteStore("Climates")
    complete.add(stale)
    complete.add(fresh)
    assert complete.covered_singletons(1 << catalog.id_of(live), catalog) is None
    popped = TupleSet.singleton(database.tuple_by_label("c2"), catalog=catalog)
    _, _, _, statistics, _, complete_counters = _step_both(
        database, _pools()["list"], [popped], [stale, fresh]
    )
    assert statistics.candidates_subsumed == 1
    assert complete_counters["sets_scanned"] == 2


def test_a_pool_holding_a_tombstoned_namesake_declines():
    """{c1'} (the live namesake) waits before {c1, s1} (the tombstoned
    incarnation) in one bucket, so only one set holds c1' and the masks
    would call the bucket uncrowded: the singleton {c1'} scans both sets,
    merges into {c1'} and moves it behind the stale set."""
    database = tourist_database()
    catalog = database.catalog()
    stale = TupleSet.of(
        database.tuple_by_label("c1"), database.tuple_by_label("s1"), catalog=catalog
    )
    live = _namesake(database, "c1")
    fresh = TupleSet.singleton(live, catalog=catalog)
    popped = TupleSet.singleton(database.tuple_by_label("c2"), catalog=catalog)
    make_pool = _pools()["list"]
    pool = make_pool()
    for tuple_set in (popped, fresh, stale):
        pool.add(tuple_set)
    assert pool.waiting_anchors(catalog) is None
    _, listed, _, _, pool_counters, _ = _step_both(
        database, make_pool, [popped, fresh, stale], []
    )
    # The step's inserts go to the head; the two waiting sets keep their slots.
    assert listed == [["c3"], ["c2", "s4"], ["c1"], ["c1", "s1"]]
    assert pool_counters["sets_scanned"] == 2


def test_the_containers_answer_on_masks():
    database = tourist_database()
    catalog = database.catalog()
    pool = ListIncompletePool("Climates")
    complete = CompleteStore("Climates")
    c1 = TupleSet.singleton(database.tuple_by_label("c1"), catalog=catalog)
    pool.add(c1)
    complete.add(c1)
    bit = 1 << catalog.id_of(database.tuple_by_label("c1"))
    assert pool.waiting_anchors(catalog) == (bit, 0)
    assert complete.covered_singletons(bit, catalog) == bit


def test_probes_run_once_per_survivor_that_is_not_an_anchor_singleton(monkeypatch):
    """On an indexed 5×120 chain, first 10 answers: the mask step probes
    ``Complete`` (``contains_superset_mask``) and ``Incomplete``
    (``waiting``) for exactly the survivors the reference step probes that
    are not anchor singletons; the singletons are settled in bulk."""
    database = chain_database(
        relations=5, tuples_per_relation=120, domain_size=60, null_rate=0.05, seed=0
    )
    anchor = database.relation_names[0]

    def first_ten():
        results = incremental_fd(database, anchor)
        return [_labels(r) for r in itertools.islice(results, 10)]

    def record(patch, owner, name):
        """Patch ``owner.name`` to record the first argument of each call."""
        probes = []
        original = getattr(owner, name)

        def recorded(self, probe, *args, **options):
            probes.append(probe)
            return original(self, probe, *args, **options)

        patch.setattr(owner, name, recorded)
        return probes

    with monkeypatch.context() as patch:
        mask_probes = record(patch, CompleteStore, "contains_superset_mask")
        waiting_probes = record(patch, ListIncompletePool, "waiting")
        shipped = first_ten()
    with monkeypatch.context() as patch:
        complete_probes = record(patch, CompleteStore, "contains_superset")
        merge_probes = record(patch, ListIncompletePool, "candidates")
        with reference_step() as steps:
            reference = first_ten()
    assert len(steps) >= 10
    assert shipped == reference
    singletons = sum(len(probe) == 1 for probe in complete_probes)
    assert singletons > 0
    assert len(mask_probes) == len(complete_probes) - singletons
    assert len(waiting_probes) == sum(len(probe) > 1 for probe in merge_probes)
