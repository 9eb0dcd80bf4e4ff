"""Epoch revalidation of cached prefixes, and the cache under memory pressure."""

from __future__ import annotations

import random

import pytest

from repro.core.full_disjunction import full_disjunction_sets
from repro.service.cache import PrefixCache
from repro.service.session import StaleResultLog
from repro.workloads.generators import random_database, star_database
from repro.workloads.tourist import tourist_database


def _key(tuple_set):
    return frozenset((t.relation_name, t.label, t.values) for t in tuple_set)


def _tuple_outside(database, prefix):
    """A live tuple contained in no result of ``prefix`` (None when covered)."""
    covered = set()
    for tuple_set in prefix:
        covered.update(tuple_set.tuples)
    for t in database.tuples():
        if t not in covered:
            return t
    return None


class TestEpochRevalidation:
    def test_untouched_prefix_rides_through_a_deletion(self):
        database = star_database(spokes=3, tuples_per_relation=5, hub_domain=2, seed=0)
        cache = PrefixCache()
        first = cache.open(database, "fd")
        prefix = first.next(4)
        pulled = first.log.pulled
        victim = _tuple_outside(database, prefix)
        assert victim is not None
        database.remove_tuple(victim.relation_name, victim.label)
        second = cache.open(database, "fd")
        stats = cache.stats()
        assert stats["revalidations"] == 1
        assert stats["misses"] == 1  # no recomputation started
        assert stats["invalidations"] == 0
        assert second.next(4) == prefix
        # The prefix was served from memory: nothing new was pulled.
        assert second.log.pulled == pulled

    def test_revalidated_log_extends_with_a_fresh_tail_on_demand(self):
        database = star_database(spokes=3, tuples_per_relation=5, hub_domain=2, seed=0)
        cache = PrefixCache()
        prefix = cache.open(database, "fd").next(4)
        victim = _tuple_outside(database, prefix)
        database.remove_tuple(victim.relation_name, victim.label)
        session = cache.open(database, "fd")
        everything = {_key(ts) for ts in session.drain()}
        fresh = {_key(ts) for ts in full_disjunction_sets(database)}
        assert everything == fresh

    def test_touched_prefix_is_invalidated(self):
        database = star_database(spokes=3, tuples_per_relation=5, hub_domain=2, seed=0)
        cache = PrefixCache()
        prefix = cache.open(database, "fd").next(4)
        victim = next(iter(prefix[0]))
        database.remove_tuple(victim.relation_name, victim.label)
        cache.open(database, "fd")
        stats = cache.stats()
        assert stats["revalidations"] == 0
        assert stats["invalidations"] == 1
        assert stats["misses"] == 2

    def test_appends_still_invalidate(self):
        database = tourist_database()
        cache = PrefixCache()
        cache.open(database, "fd").next(3)
        database.add_tuple("Climates", ["x", "cold"])
        cache.open(database, "fd")
        assert cache.stats()["revalidations"] == 0
        assert cache.stats()["misses"] == 2

    def test_updates_invalidate_even_untouched_prefixes(self):
        # An update appends a fresh tuple, which can extend *any* result:
        # the deletions-only precondition (no ids issued) rightly fails.
        database = star_database(spokes=3, tuples_per_relation=5, hub_domain=2, seed=0)
        cache = PrefixCache()
        prefix = cache.open(database, "fd").next(3)
        victim = _tuple_outside(database, prefix)
        database.update_tuple(
            victim.relation_name, victim.label,
            tuple(f"{v}*" for v in victim.values),
        )
        cache.open(database, "fd")
        assert cache.stats()["revalidations"] == 0
        assert cache.stats()["misses"] == 2

    def test_eager_revalidate_keeps_straddling_sessions_on_the_prefix(self):
        database = star_database(spokes=3, tuples_per_relation=5, hub_domain=2, seed=0)
        cache = PrefixCache()
        session = cache.open(database, "fd")
        prefix = session.next(4)
        victim = _tuple_outside(database, prefix)
        database.remove_tuple(victim.relation_name, victim.label)
        outcome = cache.revalidate(database)
        assert outcome == {"revalidated": 1, "invalidated": 0}
        # The prefix stays readable; pulling beyond it fails fast until a
        # fresh open attaches the recomputation tail.
        fork = session.fork()
        assert fork.next(len(prefix)) == prefix
        with pytest.raises(StaleResultLog, match="revalidated"):
            fork.next(1000)
        reopened = cache.open(database, "fd")
        drained = {_key(ts) for ts in reopened.drain()}
        fresh = {_key(ts) for ts in full_disjunction_sets(database)}
        assert drained == fresh
        # ... and the once-stale fork now reads through the same log too.
        assert {_key(ts) for ts in fork.log.results} == fresh

    def test_second_deletion_revalidates_again(self):
        database = star_database(spokes=4, tuples_per_relation=5, hub_domain=2, seed=3)
        cache = PrefixCache()
        prefix = cache.open(database, "fd").next(3)
        first_victim = _tuple_outside(database, prefix)
        database.remove_tuple(first_victim.relation_name, first_victim.label)
        assert cache.open(database, "fd").next(3) == prefix
        second_victim = _tuple_outside(database, prefix)
        assert second_victim is not None
        database.remove_tuple(second_victim.relation_name, second_victim.label)
        session = cache.open(database, "fd")
        assert session.next(3) == prefix
        assert cache.stats()["revalidations"] == 2
        assert cache.stats()["misses"] == 1


@pytest.mark.parametrize("seed", [1, 4, 7, 12])
def test_randomized_revalidation_serves_only_fresh_serial_results(seed):
    """Randomized: whatever a revalidated session serves, a fresh run serves too."""
    rng = random.Random(seed)
    database = random_database(
        relations=3,
        attributes=5,
        arity=3,
        tuples_per_relation=5,
        domain_size=3,
        null_rate=0.2,
        seed=seed,
    )
    cache = PrefixCache()
    k = rng.randint(2, 6)
    session = cache.open(database, "fd")
    prefix = session.next(k)
    reopened = session
    for _ in range(3):
        # A victim outside everything materialized so far — once the log is
        # drained no such tuple exists (every tuple is in some result) and
        # deletions rightly stop revalidating.
        victim = _tuple_outside(database, reopened.log.results)
        if victim is None:
            break
        database.remove_tuple(victim.relation_name, victim.label)
        reopened = cache.open(database, "fd")
        served = reopened.next(k)
        fresh = {_key(ts) for ts in full_disjunction_sets(database)}
        # A deletion never invalidates a surviving result: everything the
        # revalidated prefix serves is a member of the fresh serial answer
        # set.
        assert {_key(ts) for ts in served} <= fresh
        assert cache.stats()["misses"] == 1
    assert cache.stats()["revalidations"] >= 1
    # Draining the (revalidated) log converges to exactly the fresh set.
    final = {_key(ts) for ts in reopened.log.results} | {
        _key(ts) for ts in reopened.drain()
    }
    fresh = {_key(ts) for ts in full_disjunction_sets(database)}
    assert final == fresh


class TestCacheUnderMemoryPressure:
    def test_forked_sessions_on_an_evicted_log_raise_stale(self):
        """The regression: eviction must not silently truncate shared logs."""
        database = tourist_database()
        cache = PrefixCache(capacity=1)
        first = cache.open(database, "fd")
        first.next(2)
        fork = first.fork()
        # A different query evicts the shared log (capacity 1).
        cache.open(database, "fd", block_size=2).next(1)
        assert cache.stats()["evictions"] == 1
        # The materialized prefix stays readable on every cursor...
        assert len(fork.next(2)) == 2
        # ... but the pending tail was abandoned: deeper pulls fail fast.
        with pytest.raises(StaleResultLog, match="evicted"):
            fork.next(1000)
        with pytest.raises(StaleResultLog, match="evicted"):
            first.next(1000)

    def test_evicted_entries_do_not_revalidate(self):
        database = star_database(spokes=3, tuples_per_relation=4, hub_domain=2, seed=2)
        cache = PrefixCache(capacity=1)
        prefix = cache.open(database, "fd").next(2)
        cache.open(database, "fd", block_size=2).next(1)  # evicts
        victim = _tuple_outside(database, prefix)
        database.remove_tuple(victim.relation_name, victim.label)
        cache.open(database, "fd")
        # The evicted (closed) log is gone for good: a fresh run starts.
        assert cache.stats()["revalidations"] == 0
        assert cache.stats()["misses"] == 3
