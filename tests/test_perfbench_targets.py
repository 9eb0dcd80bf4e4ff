"""The program names the E18 benchmark's traced runs depend on.

``perfbench/spans.py`` patches every ``ENGINE_TARGETS``/``SERVER_TARGETS``
entry by name, its step wrapper reads ``get_next_result``'s ``database``,
``anchor`` and ``statistics`` arguments by position, and
``perfbench/common.py`` records ``active_kernel().name`` from the stub
``repro.core.kernels``.  A change to the
program that removes or reshapes one of them fails here, not only in the
traced smoke runs.
"""

from __future__ import annotations

import importlib.util
import os

import pytest

from repro.core.full_disjunction import full_disjunction
from repro.core.incremental import FDStatistics
from repro.core.kernels import active_kernel
from repro.workloads.generators import star_database

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
            use_index=True,
            statistics=statistics,
        )
        recorder.finish()
    finally:
        probe.restore()
    assert answers
    assert probe.counters["steps"] == statistics.results
    assert probe.counters["extension_passes"] == statistics.extension_passes
    assert [spans.Patches.current(m, p) for m, p, _ in TARGETS] == originals
