"""``FDStatistics.merge``: deterministic extras merging.

The drivers merge every pass's statistics, ``extras`` dict included,
through ``merge``; numeric values must accumulate and everything else must
resolve deterministically (last writer wins) — the old implementation
raised ``TypeError`` when a numeric value met a non-numeric one and summed
booleans into meaningless integers.
"""

from __future__ import annotations

from repro.core.incremental import FDStatistics


def _with_extras(**extras):
    statistics = FDStatistics()
    statistics.extras.update(extras)
    return statistics


class TestNumericExtras:
    def test_numbers_accumulate(self):
        merged = _with_extras(scans=3, ratio=0.5).merge(
            _with_extras(scans=4, ratio=0.25)
        )
        assert merged.extras["scans"] == 7
        assert merged.extras["ratio"] == 0.75

    def test_missing_keys_start_from_zero(self):
        merged = FDStatistics().merge(_with_extras(scans=5))
        assert merged.extras["scans"] == 5


class TestNonNumericExtras:
    def test_strings_are_last_writer_wins(self):
        merged = _with_extras(mode="recompute").merge(_with_extras(mode="delta"))
        assert merged.extras["mode"] == "delta"

    def test_incoming_string_is_kept_not_dropped(self):
        merged = FDStatistics().merge(_with_extras(note="pass-3"))
        assert merged.extras["note"] == "pass-3"

    def test_booleans_overwrite_instead_of_summing(self):
        merged = _with_extras(indexed=True).merge(_with_extras(indexed=True))
        assert merged.extras["indexed"] is True
        merged.merge(_with_extras(indexed=False))
        assert merged.extras["indexed"] is False

    def test_numeric_over_string_does_not_raise(self):
        merged = _with_extras(value="n/a").merge(_with_extras(value=3))
        assert merged.extras["value"] == 3

    def test_string_over_numeric_does_not_raise(self):
        merged = _with_extras(value=3).merge(_with_extras(value="n/a"))
        assert merged.extras["value"] == "n/a"


class TestMergeIsDeterministic:
    def test_three_way_merge_order_independence_for_numbers(self):
        parts = [_with_extras(scans=i) for i in (1, 2, 4)]
        forward = FDStatistics()
        for part in parts:
            forward.merge(part)
        backward = FDStatistics()
        for part in reversed(parts):
            backward.merge(part)
        assert forward.extras["scans"] == backward.extras["scans"] == 7

    def test_counters_still_accumulate(self):
        first, second = FDStatistics(results=2), FDStatistics(results=3)
        assert first.merge(second).results == 5
