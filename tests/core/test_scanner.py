"""Tests for tuple and block scanners."""

import pytest

from repro.core.scanner import BlockScanner, TupleScanner, earlier_relations, make_scanner


class TestTupleScanner:
    def test_scan_yields_every_tuple_in_database_order(self, tourist_db):
        scanner = TupleScanner(tourist_db)
        labels = [t.label for t in scanner.scan()]
        assert labels == ["c1", "c2", "c3", "a1", "a2", "a3", "s1", "s2", "s3", "s4"]

    def test_counters(self, tourist_db):
        scanner = TupleScanner(tourist_db)
        list(scanner.scan())
        list(scanner.scan())
        assert scanner.passes == 2
        assert scanner.tuple_reads == 20
        assert scanner.cost_summary() == {"tuple_reads": 20, "passes": 2}

    def test_skip_relations(self, tourist_db):
        scanner = TupleScanner(tourist_db, skip_relations={"Climates"})
        labels = [t.label for t in scanner.scan()]
        assert labels == ["a1", "a2", "a3", "s1", "s2", "s3", "s4"]


class TestBlockScanner:
    def test_same_tuple_stream_as_tuple_scanner(self, tourist_db):
        plain = [t.label for t in TupleScanner(tourist_db).scan()]
        for block_size in (1, 2, 3, 100):
            blocked = [t.label for t in BlockScanner(tourist_db, block_size).scan()]
            assert blocked == plain

    def test_block_read_count(self, tourist_db):
        scanner = BlockScanner(tourist_db, 2)
        blocks = list(scanner.scan_blocks())
        # Climates: 3 tuples -> 2 blocks; Accommodations: 3 -> 2; Sites: 4 -> 2.
        assert len(blocks) == 6
        assert scanner.block_reads == 6
        assert scanner.tuple_reads == 10
        assert scanner.passes == 1

    def test_blocks_do_not_span_relations(self, tourist_db):
        scanner = BlockScanner(tourist_db, 3)
        for block in scanner.scan_blocks():
            assert len({t.relation_name for t in block}) == 1

    def test_invalid_block_size(self, tourist_db):
        with pytest.raises(ValueError):
            BlockScanner(tourist_db, 0)

    def test_cost_summary_includes_block_fields(self, tourist_db):
        scanner = BlockScanner(tourist_db, 4)
        list(scanner.scan())
        summary = scanner.cost_summary()
        assert summary["block_size"] == 4
        assert summary["block_reads"] == 3
        assert summary["tuple_reads"] == 10

    def test_skip_relations(self, tourist_db):
        scanner = BlockScanner(tourist_db, 2, skip_relations={"Sites", "Climates"})
        labels = [t.label for t in scanner.scan()]
        assert labels == ["a1", "a2", "a3"]
        assert scanner.block_reads == 2


class TestPassSkipSet:
    def test_earlier_relations(self, tourist_db):
        assert earlier_relations(tourist_db, "Climates") == set()
        assert earlier_relations(tourist_db, "Sites") == {"Climates", "Accommodations"}

    @pytest.mark.parametrize("block_size", [None, 2])
    def test_scanner_skips_earlier_relations(self, tourist_db, block_size):
        skip = earlier_relations(tourist_db, "Accommodations")
        scanner = make_scanner(tourist_db, block_size, skip)
        labels = [t.label for t in scanner.scan()]
        assert "c1" not in labels and "a1" in labels
        assert scanner.passes == 1
        assert scanner.tuple_reads == 7
        assert scanner.database is tourist_db
        assert scanner.cost_summary()["passes"] == 1
        if block_size is not None:
            # Accommodations: 3 tuples -> 2 blocks; Sites: 4 -> 2.
            assert scanner.block_reads == 4
