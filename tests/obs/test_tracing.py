"""The phase tracer: spans, the global hook, the engine's spans, Chrome dumps."""

from __future__ import annotations

import json
import threading

import pytest

from repro.core.approx import approx_full_disjunction
from repro.core.approx_join import ExactMatchSimilarity, MinJoin
from repro.core.full_disjunction import first_k, full_disjunction
from repro.obs import (
    NULL_SPAN,
    PhaseTracer,
    get_tracer,
    summarize_events,
    trace_instant,
    trace_span,
    use_tracer,
)
from repro.workloads.generators import chain_database, star_database
from repro.workloads.tourist import tourist_database

from tests.conftest import reuse_initialization


class TestSpans:
    def test_span_records_on_close_with_args(self):
        tracer = PhaseTracer(pid=7)
        with tracer.span("engine.pass", "engine", anchor="R1") as span:
            span.annotate(results=3)
        (event,) = tracer.events()
        assert event["name"] == "engine.pass"
        assert event["cat"] == "engine"
        assert event["ph"] == "X"
        assert event["pid"] == 7
        assert event["dur"] >= 0
        assert event["args"] == {"anchor": "R1", "results": 3}

    def test_double_close_records_once(self):
        tracer = PhaseTracer()
        span = tracer.span("once")
        span.close()
        span.close()
        assert len(tracer) == 1

    def test_instant_marker(self):
        tracer = PhaseTracer()
        tracer.instant("ingest", arrivals=2)
        (event,) = tracer.events()
        assert event["ph"] == "i"
        assert event["args"] == {"arrivals": 2}

    def test_spans_are_thread_safe(self):
        tracer = PhaseTracer()

        def work():
            for _ in range(50):
                tracer.span("t").close()

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(tracer) == 200


class TestGlobalHook:
    def test_trace_span_without_tracer_is_the_null_span(self):
        assert get_tracer() is None
        span = trace_span("anything", probes=9)
        assert span is NULL_SPAN
        span.annotate(x=1)
        span.close()
        trace_instant("nothing")  # must not raise

    def test_use_tracer_installs_and_restores(self):
        tracer = PhaseTracer()
        with use_tracer(tracer):
            assert get_tracer() is tracer
            with trace_span("inner", "cat", k=1):
                pass
            trace_instant("mark")
        assert get_tracer() is None
        names = [event["name"] for event in tracer.events()]
        assert names == ["inner", "mark"]

    def test_use_tracer_nests(self):
        outer, inner = PhaseTracer(), PhaseTracer()
        with use_tracer(outer):
            with use_tracer(inner):
                trace_span("deep").close()
            trace_span("shallow").close()
        assert [e["name"] for e in inner.events()] == ["deep"]
        assert [e["name"] for e in outer.events()] == ["shallow"]


class TestDump:
    def test_chrome_trace_shape_and_dump(self, tmp_path):
        tracer = PhaseTracer()
        tracer.span("phase", "cat").close()
        path = tracer.dump(str(tmp_path / "trace.json"))
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        assert set(document) == {"traceEvents", "displayTimeUnit"}
        (event,) = document["traceEvents"]
        assert {"name", "cat", "ph", "ts", "dur", "pid", "tid"} <= set(event)

    def test_summarize_events(self):
        tracer = PhaseTracer()
        for _ in range(3):
            tracer.span("a").close()
        tracer.span("b").close()
        tracer.instant("ignored")
        summary = summarize_events(tracer.events())
        assert summary["a"]["count"] == 3
        assert summary["b"]["count"] == 1
        assert "ignored" not in summary
        assert summary["a"]["max_us"] <= summary["a"]["total_us"]


def _spans(events, name):
    return [event for event in events if event["name"] == name]


ENGINE_WORKLOADS = {
    "tourist": tourist_database,
    "star": lambda: star_database(spokes=3, tuples_per_relation=3, hub_domain=2, seed=1),
    "chain": lambda: chain_database(
        relations=4, tuples_per_relation=4, domain_size=3, null_rate=0.1, seed=2
    ),
}


#: Every driver that runs one pass per relation, drained.
ENGINE_DRIVERS = {
    "singletons": lambda database: full_disjunction(database, use_index=True),
    "previous-results": lambda database: list(
        reuse_initialization().reusing_full_disjunction(
            database, "previous-results", use_index=True
        )
    ),
    "reduced-previous": lambda database: list(
        reuse_initialization().reusing_full_disjunction(
            database, "reduced-previous", use_index=True
        )
    ),
    "approximate": lambda database: approx_full_disjunction(
        database, MinJoin(ExactMatchSimilarity()), 1.0, use_index=True
    ),
}


class TestEngineSpans:
    @pytest.mark.parametrize("driver", sorted(ENGINE_DRIVERS))
    @pytest.mark.parametrize("workload", sorted(ENGINE_WORKLOADS))
    def test_a_drained_run_traces_one_pass_per_relation_in_order(self, workload, driver):
        """Each driver's ``engine.pass`` spans: one per relation, in database
        order, each enclosing the ``engine.initialize`` of its own anchor."""
        database = ENGINE_WORKLOADS[workload]()
        tracer = PhaseTracer()
        with use_tracer(tracer):
            answers = ENGINE_DRIVERS[driver](database)
        assert answers
        events = tracer.events()
        passes = _spans(events, "engine.pass")
        assert [e["args"]["anchor"] for e in passes] == database.relation_names
        initializations = _spans(events, "engine.initialize")
        assert len(initializations) == len(passes)
        for span, initialization in zip(passes, initializations):
            assert initialization["args"]["anchor"] == span["args"]["anchor"]
            assert span["ts"] <= initialization["ts"]
            assert initialization["ts"] + initialization["dur"] <= span["ts"] + span["dur"]

    def test_first_k_traces_only_the_passes_it_reached(self):
        """An abandoned stream closes the pass it stopped in, and opens no
        later one."""
        database = tourist_database()
        tracer = PhaseTracer()
        with use_tracer(tracer):
            assert len(first_k(database, 1)) == 1
        passes = _spans(tracer.events(), "engine.pass")
        assert [e["args"]["anchor"] for e in passes] == database.relation_names[:1]
