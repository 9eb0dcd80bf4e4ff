"""Dependency-free observability: metrics, phase tracing, HTTP exposition.

``repro.obs`` is the substrate the serving stack instruments itself with:

- :mod:`repro.obs.metrics` — counters / gauges / log-bucketed histograms in
  a :class:`MetricsRegistry`, rendered as Prometheus text or shipped as a
  JSON snapshot (``stats {"detail": "metrics"}``).
  ``REPRO_METRICS=off`` swaps every series for a shared no-op.
- :mod:`repro.obs.tracing` — a :class:`PhaseTracer` of complete spans
  (engine init, passes, store probes, cache revalidation, delta apply) dumped as Chrome-trace-event JSON for Perfetto.
- :mod:`repro.obs.http` — the asyncio ``/metrics`` + ``/health`` sidecar.

The durable storage layer (PR 9) exports its series through the same
registry: the WAL's ``repro_wal_records_total`` / ``repro_wal_bytes_total``
/ ``repro_wal_fsyncs_total`` (group commits), the snapshot writer's
``repro_snapshots_total`` / ``repro_snapshot_seconds`` /
``repro_snapshot_wal_offset``, and the follower tailer's
``repro_replication_lag_seconds`` / ``repro_replication_records_total`` /
``repro_replication_offset_bytes`` — so one ``/metrics`` scrape covers
serving, durability, and replication health together.
"""

from repro.obs.http import MetricsSidecar, start_sidecar
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRIC,
    get_registry,
    metrics_enabled,
    render_snapshot,
    set_default_registry,
)
from repro.obs.tracing import (
    NULL_SPAN,
    PhaseTracer,
    get_tracer,
    set_tracer,
    summarize_events,
    trace_instant,
    trace_span,
    use_tracer,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSidecar",
    "NULL_METRIC",
    "NULL_SPAN",
    "PhaseTracer",
    "get_registry",
    "get_tracer",
    "metrics_enabled",
    "render_snapshot",
    "set_default_registry",
    "set_tracer",
    "start_sidecar",
    "summarize_events",
    "trace_instant",
    "trace_span",
    "use_tracer",
]
