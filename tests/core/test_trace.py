"""Tests for the execution-trace harness (Table 3 reproduction)."""

import pytest

from repro.core.trace import format_trace, trace_incremental_fd
from repro.workloads.tourist import TABLE3_TRACE

from tests.conftest import on_store


class TestTraceRecording:
    def test_reproduces_table3_exactly(self, tourist_db):
        trace = trace_incremental_fd(tourist_db, "Climates")
        assert len(trace.snapshots) == len(TABLE3_TRACE)
        for label, incomplete, complete in TABLE3_TRACE:
            snapshot = trace.snapshot(label)
            assert snapshot.incomplete_labels() == incomplete, label
            assert snapshot.complete_labels() == complete, label

    def test_iterations_equal_results(self, tourist_db):
        trace = trace_incremental_fd(tourist_db, "Climates")
        assert trace.iterations == 6
        assert len(trace.results) == 6

    def test_anchor_recorded(self, tourist_db):
        trace = trace_incremental_fd(tourist_db, 1)
        assert trace.anchor == "Accommodations"

    def test_unknown_snapshot_label_raises(self, tourist_db):
        trace = trace_incremental_fd(tourist_db, "Climates")
        with pytest.raises(KeyError):
            trace.snapshot("Iteration 99")

    def test_the_trace_on_the_linear_lists_matches(self, tourist_db):
        """Table 3 is the same on the paper's lists and on the index."""
        with on_store("plain"):
            plain = trace_incremental_fd(tourist_db, "Climates")
        indexed = trace_incremental_fd(tourist_db, "Climates")
        assert format_trace(plain) == format_trace(indexed)


class TestTraceFormatting:
    def test_rendered_trace_contains_all_columns(self, tourist_db):
        trace = trace_incremental_fd(tourist_db, "Climates")
        rendered = format_trace(trace)
        assert "Initialization" in rendered
        for iteration in range(1, 7):
            assert f"Iteration {iteration}" in rendered
        assert "{a1, c1}" in rendered
        assert "Incomplete" in rendered and "Complete" in rendered

    def test_max_columns_limits_output(self, tourist_db):
        trace = trace_incremental_fd(tourist_db, "Climates")
        rendered = format_trace(trace, max_columns=2)
        assert "Iteration 1" in rendered
        assert "Iteration 2" not in rendered
