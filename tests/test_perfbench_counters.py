"""Exact engine work counters of the E18 engine workloads.

``perfbench/run.py`` times ``star-full`` (the drained full disjunction of a
balanced 5-spoke star) and ``chain-firstk`` (the first 30 answers of a 5×600
chain).  Their ``FDStatistics`` are machine-independent and the same on
every ``--seed``: the seed only permutes rows among equals or renames
values.  They are pinned here exactly, so a change to the engine that does
more or less work, or the same work differently counted, fails in tier-1.
The inputs come from ``perfbench/inputs.py``, loaded by path and only read.
"""

from __future__ import annotations

import importlib.util
import os

import pytest

from repro.core.full_disjunction import full_disjunction_sets
from repro.core.incremental import FDStatistics

INPUTS_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "inputs.py"
)


def _load_inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", INPUTS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


inputs = _load_inputs()

STAR_FULL = {
    "results": 726,
    "results_emitted": 486,
    "extension_passes": 734,
    "candidates_generated": 16410,
    "candidates_subsumed": 4392,
    "candidates_merged": 3654,
    "candidates_inserted": 696,
    "candidates_without_anchor": 7668,
    "tuple_reads": 39552,
    "scan_passes": 1460,
    "block_reads": 0,
    "incomplete_sets_scanned": 104194,
    "incomplete_additions": 726,
    "incomplete_removals": 726,
    "incomplete_replacements": 3654,
    "incomplete_peak_size": 267,
    "incomplete_bucket_probes": 4350,
    "incomplete_full_scans": 0,
    "complete_sets_scanned": 144674,
    "complete_additions": 726,
    "complete_removals": 0,
    "complete_replacements": 0,
    "complete_peak_size": 726,
    "complete_bucket_probes": 7500,
    "complete_full_scans": 0,
}

CHAIN_FIRSTK = {
    "results": 30,
    "results_emitted": 30,
    "extension_passes": 44,
    "candidates_generated": 89869,
    "candidates_subsumed": 136,
    "candidates_merged": 18013,
    "candidates_inserted": 59,
    "candidates_without_anchor": 71661,
    "tuple_reads": 222000,
    "scan_passes": 74,
    "block_reads": 0,
    "incomplete_sets_scanned": 19593,
    "incomplete_additions": 659,
    "incomplete_removals": 30,
    "incomplete_replacements": 18013,
    "incomplete_peak_size": 635,
    "incomplete_bucket_probes": 18072,
    "incomplete_full_scans": 0,
    "complete_sets_scanned": 723,
    "complete_additions": 30,
    "complete_removals": 0,
    "complete_replacements": 0,
    "complete_peak_size": 30,
    "complete_bucket_probes": 476,
    "complete_full_scans": 0,
}


def _counters(database, limit):
    """The query ``perfbench/engine.py`` times, and its statistics."""
    statistics = FDStatistics()
    answers = 0
    generator = full_disjunction_sets(database, use_index=True, statistics=statistics)
    for _ in generator:
        answers += 1
        if answers == limit:
            break
    generator.close()
    return answers, statistics.as_dict()


@pytest.mark.parametrize("seed", [1, 11])
def test_star_full_counters(seed):
    database = inputs.balanced_star(seed, **inputs.SCALES["full"]["star"])
    assert _counters(database, None) == (486, STAR_FULL)


@pytest.mark.parametrize("seed", [1, 11])
def test_chain_firstk_counters(seed):
    database = inputs.chain(seed, null_rate=0.05, **inputs.SCALES["full"]["chain"])
    assert _counters(database, inputs.FIRST_K) == (inputs.FIRST_K, CHAIN_FIRSTK)
