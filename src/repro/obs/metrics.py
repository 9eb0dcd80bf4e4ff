"""A dependency-free metrics registry with Prometheus text exposition.

The serving layer needs live series — counters, gauges, log-bucketed latency
histograms — that an operator can scrape, not snapshot dicts that vanish
between ``stats`` calls.  This module is the substrate: a
:class:`MetricsRegistry` hands out metric *families* (one per name, shared by
everyone asking for that name), each family hands out labelled children, and
the whole registry renders to the Prometheus text exposition format or to a
JSON-serializable *snapshot* that can cross a process boundary.

The snapshot is what ``stats {"detail": "metrics"}`` ships over the wire;
``registry.render()`` is just ``render_snapshot(registry.snapshot())``.

**The off switch.**  ``REPRO_METRICS=off`` (checked when a registry is
created; ``MetricsRegistry(enabled=...)`` overrides per instance) makes every
family request return one shared :data:`NULL_METRIC` whose ``inc``/``set``/
``observe`` are no-ops — the instrumented hot paths keep their call sites but
pay only a method call.  The E15 benchmark holds the *enabled* path to ≤ 5%
overhead over this null path on identical workloads.

Histogram buckets are log-spaced by default (:data:`DEFAULT_LATENCY_BUCKETS`,
10 µs – 50 s in 1/2.5/5 decades), the right shape for latency distributions
whose tails matter: the paper's incremental-polynomial-delay guarantee is a
claim about exactly that tail.
"""

from __future__ import annotations

import math
import os
import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

#: Log-spaced latency buckets: 1/2.5/5 per decade from 10 µs to 50 s.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    round(m * 10.0**e, 10) for e in range(-5, 2) for m in (1.0, 2.5, 5.0)
)


def metrics_enabled() -> bool:
    """The process-wide default of the ``REPRO_METRICS`` switch."""
    return os.environ.get("REPRO_METRICS", "on").strip().lower() not in (
        "off",
        "0",
        "false",
        "no",
    )


def _format_value(value: float) -> str:
    """A Prometheus-compatible number rendering (integers without ``.0``)."""
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in labels.items()
    )
    return "{" + inner + "}"


class _Child:
    """One labelled series of a family: the object hot paths actually touch."""

    __slots__ = ("labels",)

    def __init__(self, labels: Dict[str, str]):
        self.labels = labels


class _CounterChild(_Child):
    __slots__ = ("value",)

    def __init__(self, labels):
        super().__init__(labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        self.value += amount


class _GaugeChild(_Child):
    __slots__ = ("value",)

    def __init__(self, labels):
        super().__init__(labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class _HistogramChild(_Child):
    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, labels, bounds: Sequence[float]):
        super().__init__(labels)
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # the last slot is +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1


class MetricFamily:
    """All series of one metric name: type, help text, labelled children.

    Children are created on first :meth:`labels` call and cached by label
    values, so hot paths can pre-resolve a child once and touch only it.  A
    label-less family materializes its single child eagerly — a registered
    counter is visible at ``0`` before the first increment, which is what
    lets a scrape assert a series exists before traffic arrives.
    """

    kind = "untyped"
    _child_class = _Child

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str] = ()):
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._children: "Dict[Tuple[str, ...], _Child]" = {}
        if not self.labelnames:
            self.labels()

    def _make_child(self, labels: Dict[str, str]) -> _Child:
        return self._child_class(labels)

    def labels(self, **labels: object):
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name} takes labels {self.labelnames}, got {tuple(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = self._make_child(dict(zip(self.labelnames, key)))
            self._children[key] = child
        return child

    # Label-less convenience: the family proxies to its single child.
    def _solo(self):
        if self.labelnames:
            raise ValueError(
                f"{self.name} is labelled by {self.labelnames}; call .labels() first"
            )
        return self.labels()

    def samples(self) -> List[dict]:
        raise NotImplementedError

    def snapshot(self) -> dict:
        return {
            "name": self.name,
            "type": self.kind,
            "help": self.help,
            "samples": self.samples(),
        }


class Counter(MetricFamily):
    kind = "counter"
    _child_class = _CounterChild

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)

    @property
    def value(self) -> float:
        return self._solo().value

    def samples(self) -> List[dict]:
        return [
            {"labels": dict(child.labels), "value": child.value}
            for child in self._children.values()
        ]


class Gauge(MetricFamily):
    kind = "gauge"
    _child_class = _GaugeChild

    def set(self, value: float) -> None:
        self._solo().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._solo().dec(amount)

    @property
    def value(self) -> float:
        return self._solo().value

    def samples(self) -> List[dict]:
        return [
            {"labels": dict(child.labels), "value": child.value}
            for child in self._children.values()
        ]


class Histogram(MetricFamily):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ):
        bounds = tuple(buckets) if buckets is not None else DEFAULT_LATENCY_BUCKETS
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram buckets must be strictly increasing: {bounds}")
        if not bounds:
            raise ValueError("a histogram needs at least one finite bucket bound")
        self.bounds = bounds
        super().__init__(name, help_text, labelnames)

    def _make_child(self, labels: Dict[str, str]) -> _HistogramChild:
        return _HistogramChild(labels, self.bounds)

    def observe(self, value: float) -> None:
        self._solo().observe(value)

    def samples(self) -> List[dict]:
        out = []
        for child in self._children.values():
            cumulative = []
            running = 0
            for bound, count in zip(child.bounds, child.counts):
                running += count
                cumulative.append([bound, running])
            out.append(
                {
                    "labels": dict(child.labels),
                    "buckets": cumulative,
                    "sum": child.sum,
                    "count": child.count,
                }
            )
        return out


class _NullMetric:
    """The disabled stand-in: every op is a no-op, every child is itself."""

    kind = "null"
    value = 0.0

    def labels(self, **labels):  # noqa: ARG002 - intentionally ignored
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


#: The shared no-op metric handed out by disabled registries.
NULL_METRIC = _NullMetric()


class MetricsRegistry:
    """A named collection of metric families, renderable and shippable.

    ``enabled=None`` follows the process-wide ``REPRO_METRICS`` switch at
    construction time.  Disabled registries hand out :data:`NULL_METRIC` for
    every request and render as empty — instrumented code never branches on
    the switch itself.

    Family getters are idempotent: asking twice for one name returns the one
    family (help/labels from the first registration), so independently
    constructed components — a server and its cache, say — share series by
    naming convention alone.  Asking for an existing name as a different
    metric type is a programming error and raises.
    """

    def __init__(self, enabled: Optional[bool] = None):
        self.enabled = metrics_enabled() if enabled is None else bool(enabled)
        self._families: "Dict[str, MetricFamily]" = {}
        self._lock = threading.Lock()

    def _get(self, factory, name: str, help_text: str, labelnames, **extra):
        if not self.enabled:
            return NULL_METRIC
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = factory(name, help_text, labelnames, **extra)
                self._families[name] = family
            elif not isinstance(family, factory):
                raise ValueError(
                    f"metric {name!r} is already registered as a {family.kind}"
                )
            return family

    def counter(self, name: str, help_text: str, labelnames: Sequence[str] = ()):
        return self._get(Counter, name, help_text, labelnames)

    def gauge(self, name: str, help_text: str, labelnames: Sequence[str] = ()):
        return self._get(Gauge, name, help_text, labelnames)

    def histogram(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ):
        return self._get(Histogram, name, help_text, labelnames, buckets=buckets)

    def family(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    def snapshot(self) -> dict:
        """A JSON-serializable copy of every family (wire-safe)."""
        return {
            "families": [
                family.snapshot()
                for _, family in sorted(self._families.items())
            ]
        }

    def render(self) -> str:
        """The registry as one Prometheus text-exposition page."""
        return render_snapshot(self.snapshot())


# --------------------------------------------------------------------------- #
# rendering
# --------------------------------------------------------------------------- #
def _render_family(lines: List[str], family: dict) -> None:
    name = family["name"]
    lines.append(f"# HELP {name} {_escape_help(family.get('help', ''))}")
    lines.append(f"# TYPE {name} {family.get('type', 'untyped')}")
    for sample in family.get("samples", []):
        labels = sample.get("labels", {})
        if "buckets" in sample:
            for bound, cumulative in sample["buckets"]:
                bucket_labels = dict(labels)
                bucket_labels["le"] = _format_value(float(bound))
                lines.append(
                    f"{name}_bucket{_render_labels(bucket_labels)} {cumulative}"
                )
            inf_labels = dict(labels)
            inf_labels["le"] = "+Inf"
            lines.append(
                f"{name}_bucket{_render_labels(inf_labels)} {sample['count']}"
            )
            lines.append(
                f"{name}_sum{_render_labels(labels)} {_format_value(sample['sum'])}"
            )
            lines.append(f"{name}_count{_render_labels(labels)} {sample['count']}")
        else:
            lines.append(
                f"{name}{_render_labels(labels)} {_format_value(sample['value'])}"
            )


def render_snapshot(snapshot: dict) -> str:
    """Render a registry snapshot as Prometheus text."""
    lines: List[str] = []
    for family in snapshot.get("families", []):
        _render_family(lines, family)
    return "\n".join(lines) + ("\n" if lines else "")


# --------------------------------------------------------------------------- #
# the process-default registry
# --------------------------------------------------------------------------- #
_DEFAULT: Optional[MetricsRegistry] = None
_DEFAULT_LOCK = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-default registry (created lazily under ``REPRO_METRICS``)."""
    global _DEFAULT
    if _DEFAULT is None:
        with _DEFAULT_LOCK:
            if _DEFAULT is None:
                _DEFAULT = MetricsRegistry()
    return _DEFAULT


def set_default_registry(registry: Optional[MetricsRegistry]) -> None:
    """Replace the process-default registry (tests and benchmarks)."""
    global _DEFAULT
    _DEFAULT = registry
