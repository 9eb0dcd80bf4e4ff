"""The mask-first ``GetNextResult`` step against the per-tuple reference.

Lines 2–9 run on the catalog's masks (``repro.core.incremental``).  The
reference step in ``tests/core/reference_step.py`` runs them one scanned
tuple at a time.  On random star, chain and skewed databases mutated through
``Database`` (removals, appends, updates), both steps must produce the same
results in the same order, the same ``Incomplete`` list after every step and
equal ``FDStatistics`` — with and without an anchor bucket, with the index on
and off, restricted to ``R_i, …, R_n`` or not, and under both kernels.  The
mask step's exactness rests on scan order being gid order within a relation;
an invariant test pins that down through every mutation path.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.incremental import (
    FDStatistics,
    get_next_result,
    incremental_fd,
)
from repro.core.kernels import KERNELS, numpy_available, use_kernel
from repro.core.scanner import BlockScanner, TupleScanner
from repro.core.store import CompleteStore, ListIncompletePool
from repro.core.tupleset import TupleSet
from repro.relational.database import Database
from repro.relational.nulls import NULL
from repro.workloads.generators import (
    chain_database,
    skewed_chain_database,
    star_database,
)
from repro.workloads.tourist import tourist_database

from tests.core.reference_step import ReferenceBackend, reference_get_next_result

AVAILABLE_KERNELS = [name for name in KERNELS if name != "packed" or numpy_available()]

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
    return skewed_chain_database(
        relations=3, tuples_per_relation=3, hot_factor=3, domain_size=3,
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


def _run(database, anchor, backend, use_index, anchor_tuples, restricted):
    """Results, the Incomplete list after every step, and the statistics."""
    skip = ()
    if restricted:
        skip = database.relation_names[: database.index_of(anchor)]
    statistics = FDStatistics()
    pools = []

    def after_step(iteration, result, incomplete, complete):
        pools.append([_labels(s) for s in incomplete.as_list()])

    results = incremental_fd(
        database,
        anchor,
        use_index=use_index,
        scanner=TupleScanner(database, skip),
        statistics=statistics,
        on_iteration=after_step,
        backend=backend,
        anchor_tuples=anchor_tuples,
    )
    return [_labels(r) for r in results], pools, statistics


@PROPERTY
@given(
    database=mutated_databases(),
    choice=st.randoms(use_true_random=False),
    use_index=st.booleans(),
    restricted=st.booleans(),
    kernel=st.sampled_from(AVAILABLE_KERNELS),
    backend=st.sampled_from([None, "serial"]),
)
def test_mask_step_matches_the_reference_step(
    database, choice, use_index, restricted, kernel, backend
):
    anchor = choice.choice(database.relation_names)
    anchor_tuples = None
    if choice.random() < 0.5:
        members = list(database.relation(anchor))
        anchor_tuples = choice.sample(members, choice.randint(0, len(members)))
    with use_kernel(kernel):
        shipped = _run(database, anchor, backend, use_index, anchor_tuples, restricted)
        reference = _run(
            database, anchor, ReferenceBackend(), use_index, anchor_tuples, restricted
        )
    assert shipped[0] == reference[0]
    assert shipped[1] == reference[1]
    assert shipped[2] == reference[2]


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
        assert mapped.catalog().packed_mirror().backing == "mmap"
        for anchor in mapped.relation_names:
            assert _run(mapped, anchor, None, True, None, True) == _run(
                mapped, anchor, ReferenceBackend(), True, None, True
            )
    finally:
        _close_mirror(mapped)
        _close_mirror(database)


def _close_mirror(database: Database) -> None:
    database.catalog().packed_mirror().file.close()


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
# the fallbacks: the tuple loop whenever a mask pass is refused
# --------------------------------------------------------------------- #
def _drain_both(database, anchor, seeds, scanner_factory):
    """Step a shipped and a reference pool to exhaustion, side by side."""
    runs = []
    for step in (get_next_result, reference_get_next_result):
        incomplete = ListIncompletePool(anchor, use_index=True)
        for seed in seeds:
            incomplete.add(seed)
        complete = CompleteStore(anchor, use_index=True)
        scanner = scanner_factory()
        statistics = FDStatistics()
        trace = []
        while incomplete:
            result = step(database, anchor, incomplete, complete, scanner, statistics)
            complete.add(result)
            trace.append((_labels(result), [_labels(s) for s in incomplete.as_list()]))
        runs.append((trace, statistics, scanner.cost_summary()))
    assert runs[0] == runs[1]
    assert runs[0][0], "the pool produced nothing"


class TestFallbacks:
    def test_uninterned_seed(self):
        database = tourist_database()
        database.catalog()
        seeds = [TupleSet.singleton(t) for t in database.relation("Climates")]
        assert TupleScanner(database).mask_pass(seeds[0]) is None
        _drain_both(database, "Climates", seeds, lambda: TupleScanner(database))

    def test_catalog_made_stale_behind_the_database(self):
        database = tourist_database()
        catalog = database.catalog()
        seeds = [
            TupleSet.singleton(t, catalog=catalog) for t in database.relation("Climates")
        ]
        database.relation("Sites").add(["Canada", "Toronto", "CN Tower"])
        assert database.current_catalog() is None
        assert TupleScanner(database).mask_pass(seeds[0]) is None
        _drain_both(database, "Climates", seeds, lambda: TupleScanner(database))

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
    # An uninterned operand takes the general path.
    assert whole.union(TupleSet.singleton(a1)) is not whole


@pytest.mark.parametrize("use_index", [False, True], ids=["plain", "indexed"])
def test_replace_with_itself_moves_the_set_to_the_end_of_its_bucket(use_index):
    database = tourist_database()
    catalog = database.catalog()
    c1 = database.tuple_by_label("c1")
    first = TupleSet.singleton(c1, catalog=catalog)
    second = TupleSet.of(c1, database.tuple_by_label("a1"), catalog=catalog)
    other = TupleSet.singleton(database.tuple_by_label("c2"), catalog=catalog)
    pool = ListIncompletePool("Climates", use_index=use_index, extraction="fifo")
    for tuple_set in (first, other, second):
        pool.add(tuple_set)
    pool.replace(first, first)
    assert pool.as_list() == [first, other, second]
    assert len(pool) == 3
    assert pool.statistics.replacements == 1
    if use_index:
        assert pool.candidates(first) == [second, first]
    missing = TupleSet.singleton(database.tuple_by_label("c3"), catalog=catalog)
    with pytest.raises(KeyError):
        pool.replace(missing, missing)
