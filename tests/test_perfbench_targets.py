"""The program names the E18 benchmark's traced runs depend on.

``perfbench/spans.py`` patches every ``ENGINE_TARGETS``/``SERVER_TARGETS``
entry by name, its step wrapper reads ``get_next_result``'s ``database``,
``anchor`` and ``statistics`` arguments by position, and
``perfbench/common.py`` records ``active_kernel().name`` from the stub
``repro.core.kernels``, and its runs pass ``use_index=True`` to
``full_disjunction_sets``, ``full_disjunction`` and ``open_durable_server``
(and to the wire ``open``, tested with the server).  A change to the
program that removes or reshapes one of them fails here, not only in the
traced smoke runs.
"""

from __future__ import annotations

import importlib.util
import os

import pytest

from repro.core.full_disjunction import full_disjunction, full_disjunction_sets
from repro.core.incremental import FDStatistics
from repro.core.kernels import active_kernel
from repro.service.server import open_durable_server
from repro.workloads.generators import star_database
from repro.workloads.tourist import tourist_database

SPANS_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "spans.py"
)


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()
TARGETS = spans.ENGINE_TARGETS + spans.SERVER_TARGETS


@pytest.mark.parametrize(
    "module_name,path,span", TARGETS, ids=[f"{m}.{p}" for m, p, _ in TARGETS]
)
def test_every_patch_target_resolves(module_name, path, span):
    assert callable(spans.Patches.current(module_name, path))


def test_the_recorded_kernel_name_resolves():
    assert active_kernel().name == "holding_dead"


def test_a_traced_run_counts_every_step_and_restores_the_program():
    originals = [spans.Patches.current(m, p) for m, p, _ in TARGETS]
    recorder = spans.SpanRecorder()
    probe = spans.EngineProbe(recorder)
    probe.install(TARGETS)
    statistics = FDStatistics()
    try:
        recorder.begin()
        answers = full_disjunction(
            star_database(spokes=3, tuples_per_relation=3, hub_domain=2, seed=1),
            statistics=statistics,
        )
        recorder.finish()
    finally:
        probe.restore()
    assert answers
    assert probe.counters["steps"] == statistics.results
    assert probe.counters["extension_passes"] == statistics.extension_passes
    assert [spans.Patches.current(m, p) for m, p, _ in TARGETS] == originals


def _durable(database, data_dir, **options):
    server = open_durable_server(database, str(data_dir), snapshot_every=None, **options)
    server.shutdown()
    return server.database.tuple_count()


#: The entry points the harness passes ``use_index=True`` to.
HARNESS_CALLS = {
    "full_disjunction_sets": lambda db, _, **options: list(full_disjunction_sets(db, **options)),
    "full_disjunction": lambda db, _, **options: full_disjunction(db, **options),
    "open_durable_server": _durable,
}


@pytest.mark.parametrize("call", sorted(HARNESS_CALLS))
def test_the_harness_use_index_takes_only_true(call, tmp_path):
    """The index is always on: ``True`` runs the call as without it, and
    anything else is refused before any work."""
    run = HARNESS_CALLS[call]
    assert run(tourist_database(), tmp_path / "on", use_index=True)
    for value in (False, None, 1, "yes"):
        data_dir = tmp_path / repr(value)
        with pytest.raises(ValueError, match=f"use_index={value!r} is not supported"):
            run(tourist_database(), data_dir, use_index=value)
        assert not data_dir.exists()
