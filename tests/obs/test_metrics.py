"""The metrics registry: families, the off switch, snapshots, exposition.

The golden-file test pins the full Prometheus text page for a small registry
— HELP/TYPE lines, cumulative ``_bucket`` series with ``le`` labels,
``_sum``/``_count``, label escaping — so any formatting regression shows up
as a readable diff.  The hypothesis test checks the histogram invariant that
makes the cumulative encoding valid: bucket counts are monotone
non-decreasing in ``le`` and the ``+Inf`` count equals the observation count.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    NULL_METRIC,
    render_snapshot,
)
from repro.obs.metrics import _format_value


class TestFamilies:
    def test_counter_counts_and_rejects_negatives(self):
        registry = MetricsRegistry(enabled=True)
        counter = registry.counter("repro_things_total", "Things.")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry(enabled=True)
        gauge = registry.gauge("repro_depth", "Depth.")
        gauge.set(4)
        gauge.dec()
        gauge.inc(0.5)
        assert gauge.value == 3.5

    def test_histogram_buckets_by_bisect(self):
        registry = MetricsRegistry(enabled=True)
        histogram = registry.histogram("repro_lat", "Lat.", buckets=(0.1, 1.0))
        for value in (0.05, 0.1, 0.5, 1.0, 5.0):
            histogram.observe(value)
        (sample,) = histogram.samples()
        # le=0.1 covers 0.05 and the boundary value 0.1; le=1.0 adds 0.5 and 1.0.
        assert sample["buckets"] == [[0.1, 2], [1.0, 4]]
        assert sample["count"] == 5
        assert sample["sum"] == pytest.approx(6.65)

    def test_histogram_rejects_bad_bounds(self):
        registry = MetricsRegistry(enabled=True)
        with pytest.raises(ValueError):
            registry.histogram("repro_bad", "Bad.", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            registry.histogram("repro_empty", "Empty.", buckets=())

    def test_labelled_children_are_cached(self):
        registry = MetricsRegistry(enabled=True)
        family = registry.counter("repro_ops_total", "Ops.", ("op",))
        family.labels(op="open").inc()
        family.labels(op="open").inc()
        family.labels(op="next").inc()
        assert family.labels(op="open").value == 2
        with pytest.raises(ValueError):
            family.labels(verb="open")
        with pytest.raises(ValueError):
            family.inc()  # labelled family has no solo child

    def test_family_getters_are_idempotent_but_type_strict(self):
        registry = MetricsRegistry(enabled=True)
        first = registry.counter("repro_shared_total", "Shared.")
        again = registry.counter("repro_shared_total", "ignored second help")
        assert first is again
        with pytest.raises(ValueError):
            registry.gauge("repro_shared_total", "Now a gauge?")

    def test_default_latency_buckets_are_log_spaced(self):
        assert DEFAULT_LATENCY_BUCKETS[0] == pytest.approx(1e-5)
        assert DEFAULT_LATENCY_BUCKETS[-1] == pytest.approx(50.0)
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)


class TestOffSwitch:
    def test_disabled_registry_hands_out_the_null_metric(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("repro_a_total", "A.") is NULL_METRIC
        assert registry.gauge("repro_b", "B.") is NULL_METRIC
        assert registry.histogram("repro_c", "C.") is NULL_METRIC
        assert registry.render() == ""
        assert registry.snapshot() == {"families": []}

    def test_null_metric_accepts_the_whole_api(self):
        child = NULL_METRIC.labels(op="open", shard=3)
        child.inc()
        child.dec()
        child.set(7)
        child.observe(0.2)
        assert child is NULL_METRIC

    def test_env_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS", "off")
        assert not MetricsRegistry().enabled
        monkeypatch.setenv("REPRO_METRICS", "on")
        assert MetricsRegistry().enabled


GOLDEN_PAGE = """\
# HELP repro_queue_depth Requests in flight.
# TYPE repro_queue_depth gauge
repro_queue_depth 2
# HELP repro_request_latency_seconds Latency by op.
# TYPE repro_request_latency_seconds histogram
repro_request_latency_seconds_bucket{op="open",le="0.01"} 1
repro_request_latency_seconds_bucket{op="open",le="0.1"} 2
repro_request_latency_seconds_bucket{op="open",le="1"} 2
repro_request_latency_seconds_bucket{op="open",le="+Inf"} 3
repro_request_latency_seconds_sum{op="open"} 2.555
repro_request_latency_seconds_count{op="open"} 3
# HELP repro_requests_total Total requests. Weird help: backslash \\\\ newline \\n done.
# TYPE repro_requests_total counter
repro_requests_total{op="open"} 2
repro_requests_total{op="say \\"hi\\"\\n\\\\now"} 1
"""


class TestExposition:
    def test_golden_page(self):
        registry = MetricsRegistry(enabled=True)
        requests = registry.counter(
            "repro_requests_total",
            "Total requests. Weird help: backslash \\ newline \n done.",
            ("op",),
        )
        requests.labels(op="open").inc(2)
        requests.labels(op='say "hi"\n\\now').inc()
        registry.gauge("repro_queue_depth", "Requests in flight.").set(2)
        latency = registry.histogram(
            "repro_request_latency_seconds",
            "Latency by op.",
            ("op",),
            buckets=(0.01, 0.1, 1.0),
        )
        for value in (0.005, 0.05, 2.5):
            latency.labels(op="open").observe(value)
        assert registry.render() == GOLDEN_PAGE

    def test_every_family_gets_help_and_type_lines(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("repro_one_total", "One.")
        registry.histogram("repro_two_seconds", "Two.", buckets=(1.0,))
        page = registry.render()
        for name, kind in (
            ("repro_one_total", "counter"),
            ("repro_two_seconds", "histogram"),
        ):
            assert f"# HELP {name} " in page
            assert f"# TYPE {name} {kind}" in page

    def test_unobserved_labelless_families_render_at_zero(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("repro_quiet_total", "Quiet.")
        assert "repro_quiet_total 0" in registry.render()

    def test_format_value(self):
        assert _format_value(3.0) == "3"
        assert _format_value(0.25) == "0.25"
        assert _format_value(math.inf) == "+Inf"
        assert _format_value(-math.inf) == "-Inf"
        assert _format_value(math.nan) == "NaN"


class TestSnapshots:
    def test_snapshot_is_json_safe(self):
        import json

        registry = MetricsRegistry(enabled=True)
        registry.histogram("repro_h", "H.", ("op",), buckets=(0.5,)).labels(
            op="x"
        ).observe(0.1)
        json.dumps(registry.snapshot())  # must not raise

    def test_a_snapshot_that_crossed_the_wire_renders_the_live_page(self):
        """``stats {"detail": "metrics"}`` ships the snapshot as JSON; the
        decoded copy renders the page the registry itself serves."""
        import json

        registry = MetricsRegistry(enabled=True)
        requests = registry.counter("repro_requests_total", "Requests.", ("op",))
        requests.labels(op="open").inc(2)
        requests.labels(op="next").inc()
        registry.gauge("repro_live_sessions", "Live sessions.").set(3)
        latency = registry.histogram(
            "repro_request_latency_seconds", "Latency.", ("op",), buckets=(0.01, 0.1)
        )
        for value in (0.005, 0.05, 2.5):
            latency.labels(op="next").observe(value)
        shipped = json.loads(json.dumps(registry.snapshot()))
        page = render_snapshot(shipped)
        assert page == registry.render()
        assert 'repro_request_latency_seconds_bucket{op="next",le="+Inf"} 3' in page


@settings(max_examples=50, deadline=None)
@given(
    observations=st.lists(
        st.floats(
            min_value=0.0,
            max_value=1e4,
            allow_nan=False,
            allow_infinity=False,
        ),
        max_size=200,
    )
)
def test_histogram_buckets_are_monotone_cumulative(observations):
    """Cumulative bucket counts never decrease and +Inf equals the count."""
    registry = MetricsRegistry(enabled=True)
    histogram = registry.histogram("repro_prop_seconds", "Prop.")
    for value in observations:
        histogram.observe(value)
    (sample,) = histogram.samples()
    running = [count for _, count in sample["buckets"]]
    assert running == sorted(running)
    assert sample["count"] == len(observations)
    # the largest finite bucket absorbs everything at or below its bound
    below_max = sum(1 for v in observations if v <= sample["buckets"][-1][0])
    assert running[-1] == below_max if running else True
    # the rendered page repeats the invariant, +Inf last and largest
    page = registry.render()
    bucket_lines = [
        line
        for line in page.splitlines()
        if line.startswith("repro_prop_seconds_bucket")
    ]
    rendered = [int(line.rsplit(" ", 1)[1]) for line in bucket_lines]
    assert rendered == sorted(rendered)
    assert rendered[-1] == len(observations)
