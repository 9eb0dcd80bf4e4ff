"""The LRU result-prefix cache and its generation-counter invalidation."""

from __future__ import annotations

import pytest

from repro.core.full_disjunction import full_disjunction
from repro.service.cache import PrefixCache, database_generation
from repro.service.session import StaleResultLog
from repro.workloads.generators import chain_database, star_database
from repro.workloads.tourist import tourist_database


def _labels(items):
    return [ts.labels() for ts in items]


class TestGenerationToken:
    def test_stable_when_nothing_changes(self):
        database = tourist_database()
        database.catalog()
        assert database_generation(database) == database_generation(database)

    def test_append_moves_the_tuple_count_not_the_rebuild_count(self):
        database = tourist_database()
        database.catalog()
        before = database_generation(database)
        database.add_tuple("Climates", ["x", "cold"])
        after = database_generation(database)
        assert after != before
        assert after[0] == before[0]  # in-place catalog maintenance: no rebuild
        assert after[1] == before[1]  # appends are monotone: no epoch bump
        assert after[3] == before[3] + 1

    def test_removal_moves_only_the_epoch_and_the_count(self):
        database = tourist_database()
        database.catalog()
        before = database_generation(database)
        removed = database.relation("Climates").tuples[0]
        database.remove_tuple("Climates", removed.label)
        after = database_generation(database)
        assert after[0] == before[0]  # tombstoned in place: no rebuild
        assert after[1] == before[1] + 1
        assert after[3] == before[3] - 1

    def test_adding_a_relation_moves_the_token(self):
        from repro.relational.relation import Relation

        database = tourist_database()
        database.catalog()
        before = database_generation(database)
        extra = Relation("Extra", ["Z"])
        extra.add(["z1"])
        database.add_relation(extra)
        database.catalog()
        assert database_generation(database) != before


class TestPrefixCache:
    def test_identical_queries_share_one_log(self):
        database = tourist_database()
        cache = PrefixCache()
        first = cache.open(database, "fd")
        second = cache.open(database, "fd")
        assert cache.hits == 1 and cache.misses == 1
        assert first.log is second.log
        # The first client materializes; the second replays for free.
        a = first.next(4)
        pulled = first.log.pulled
        assert second.next(4) == a
        assert first.log.pulled == pulled

    def test_cached_stream_matches_serial(self):
        database = chain_database(
            relations=3, tuples_per_relation=5, domain_size=3, null_rate=0.2, seed=7
        )
        serial = _labels(full_disjunction(database))
        cache = PrefixCache()
        cache.open(database, "fd").drain()
        warm = cache.open(database, "fd")
        assert _labels(warm.drain()) == serial
        assert cache.hits == 1

    def test_distinct_options_do_not_share(self):
        database = tourist_database()
        cache = PrefixCache()
        cache.open(database, "fd")
        cache.open(database, "fd", block_size=3)
        cache.open(database, "fd", block_size=2)
        assert cache.misses == 3 and cache.hits == 0

    def test_ingest_invalidates_via_the_generation_counter(self):
        database = tourist_database()
        database.catalog()
        cache = PrefixCache()
        stale = cache.open(database, "fd")
        stale.drain()
        database.add_tuple("Climates", ["x", "cold"])
        fresh = cache.open(database, "fd")
        assert cache.misses == 2  # the old prefix was not reused
        assert cache.invalidations == 1
        assert fresh.log is not stale.log
        # The fresh log serves the post-ingest answer stream.
        assert _labels(fresh.drain()) == _labels(full_disjunction(database))

    def test_an_option_the_engine_never_reads_is_refused_hit_or_miss(self):
        database = tourist_database()
        cache = PrefixCache()
        with pytest.raises(ValueError, match="for engine 'fd': use_index$"):
            cache.open(database, "fd", use_index=True)
        cache.open(database, "fd").next(2)
        # The refused option names no key of its own, so this would be a hit.
        with pytest.raises(ValueError, match="for engine 'fd': initialization$"):
            cache.open(database, "fd", initialization="bogus")
        assert cache.hits == 0 and cache.misses == 1 and len(cache) == 1

    def test_lru_eviction_closes_the_oldest_log(self):
        database = tourist_database()
        cache = PrefixCache(capacity=2)
        first = cache.open(database, "fd")
        cache.open(database, "fd", block_size=3)
        cache.open(database, "fd", block_size=2)
        assert cache.evictions == 1
        assert first.log.closed

    def test_eviction_mid_read_raises_instead_of_truncating(self):
        """A client must never mistake an evicted stream for a finished one."""
        database = tourist_database()
        cache = PrefixCache(capacity=1)
        reader = cache.open(database, "fd")
        assert len(reader.next(2)) == 2
        cache.open(database, "fd", block_size=2)  # evicts the reader's log
        with pytest.raises(StaleResultLog, match="evicted"):
            reader.next(10)
        assert not reader.exhausted

    def test_eager_invalidate_after_mutation(self):
        """The serving ingest path: stale readers fail fast, reopens recompute."""
        database = tourist_database()
        cache = PrefixCache()
        reader = cache.open(database, "fd")
        reader.next(2)
        database.add_tuple("Climates", ["Iceland", "arctic"])
        assert cache.invalidate(database) == 1
        with pytest.raises(StaleResultLog, match="generation"):
            reader.next(10)
        reopened = cache.open(database, "fd")
        assert _labels(reopened.drain()) == _labels(
            full_disjunction(database)
        )

    def test_client_close_never_tears_down_the_shared_log(self):
        database = tourist_database()
        cache = PrefixCache()
        first = cache.open(database, "fd")
        first.next(2)
        first.close()
        second = cache.open(database, "fd")
        assert cache.hits == 1
        assert len(second.drain()) == 6

    def test_approx_queries_key_on_threshold_and_tag(self):
        from repro.core.approx_join import ExactMatchSimilarity, MinJoin

        database = tourist_database()
        cache = PrefixCache()
        join = MinJoin(ExactMatchSimilarity())
        cache.open(database, "approx", join_function=join, threshold=0.6,
                   cache_tag="exact")
        cache.open(database, "approx", join_function=join, threshold=0.6,
                   cache_tag="exact")
        cache.open(database, "approx", join_function=join, threshold=0.8,
                   cache_tag="exact")
        assert cache.hits == 1 and cache.misses == 2

    def test_cache_tag_shares_across_fresh_callable_instances(self):
        """The tag replaces callable identity: per-request MinJoin objects share."""
        from repro.core.approx_join import ExactMatchSimilarity, MinJoin

        database = tourist_database()
        cache = PrefixCache()
        first = cache.open(database, "approx",
                           join_function=MinJoin(ExactMatchSimilarity()),
                           threshold=0.6, cache_tag="minjoin-exact")
        second = cache.open(database, "approx",
                            join_function=MinJoin(ExactMatchSimilarity()),
                            threshold=0.6, cache_tag="minjoin-exact")
        assert cache.hits == 1 and cache.misses == 1
        assert first.log is second.log

    def test_untagged_callables_fragment_by_identity(self):
        database = tourist_database()
        cache = PrefixCache()
        from repro.core.approx_join import ExactMatchSimilarity, MinJoin

        cache.open(database, "approx",
                   join_function=MinJoin(ExactMatchSimilarity()), threshold=0.6)
        cache.open(database, "approx",
                   join_function=MinJoin(ExactMatchSimilarity()), threshold=0.6)
        assert cache.misses == 2  # safe default: unknown callables never alias

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            PrefixCache(capacity=0)

    def test_clear_closes_everything(self):
        database = star_database(spokes=3, tuples_per_relation=3, hub_domain=2, seed=3)
        cache = PrefixCache()
        session = cache.open(database, "fd")
        cache.clear()
        assert len(cache) == 0
        assert session.log.closed

    def test_stats_shape(self):
        cache = PrefixCache()
        stats = cache.stats()
        assert set(stats) == {
            "entries", "capacity", "hits", "misses", "invalidations",
            "revalidations", "evictions",
        }
