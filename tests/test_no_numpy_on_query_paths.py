"""Queries, retraction, sessions and the durable server never import NumPy.

NumPy serves mapped catalogs alone: only building or attaching a packed
mirror (:mod:`repro.relational.packed_mirror`) loads it.  Each case runs in
a fresh interpreter, because this test process may have imported NumPy
already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.relational.packed_mirror import numpy_available

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_QUERY_PATHS = r"""
import asyncio, importlib.util, json, os, sys, tempfile

spec = importlib.util.spec_from_file_location("perfbench_inputs", sys.argv[1])
inputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(inputs)

from repro.core.full_disjunction import first_k, full_disjunction_sets
from repro.core.incremental import FDStatistics
from repro.core.priority import top_k
from repro.core.ranking import MaxRanking
from repro.core.store import CompleteStore, ListIncompletePool, PriorityIncompletePool
from repro.service.delta import StreamingFullDisjunction
from repro.service.server import open_durable_server

report = {}
star = inputs.balanced_star(1, **inputs.SCALES["full"]["star"])
statistics = FDStatistics()
report["star"] = len(list(full_disjunction_sets(star, use_index=True, statistics=statistics)))
report["statistics"] = sorted(statistics.as_dict())
chain = inputs.chain(1, null_rate=0.05, **inputs.SCALES["full"]["chain"])
report["first_k"] = len(first_k(chain, inputs.FIRST_K, use_index=True))
ranking = MaxRanking({t.label: len(t.label) for t in star.tuples()})
report["top_k"] = len(top_k(star, ranking, 5, use_index=True))

maintainer = StreamingFullDisjunction(star, use_index=False, ranking=ranking)
report["primed"] = maintainer.prime()
victim = next(iter(star.relations[0]))
report["retracted"] = maintainer.remove([(victim.relation_name, victim.label)])["results_retracted"]
# A primed maintainer's queues are drained and its stores retract through
# the catalog, so the sweep also runs on pools and a catalog-less store
# that hold its standing results.
results = [result for result, _ in maintainer.results]
dead = {next(iter(results[0]))}
anchor = star.relations[0].name
pools = [ListIncompletePool(anchor), PriorityIncompletePool(anchor, ranking)]
store = CompleteStore(anchor_relation=None, use_index=False)
for result in results:
    for pool in pools:
        pool.add(result)
    store.add(result)
report["swept"] = [len(container) for container in pools + [store]]
report["evicted"] = [pool.discard_containing(dead) for pool in pools]
report["evicted"].append(len(store.retract_containing(dead)))

served = inputs.chain(1, null_rate=0.1, **inputs.SCALES["smoke"]["served"])
with tempfile.TemporaryDirectory() as data_dir:
    state = open_durable_server(served, data_dir, use_index=True)
    state.maintainer.prime()
    stats = asyncio.run(state.handle_request({"op": "stats"}))
    report["stats"] = sorted(stats)
    report["health"] = sorted(state.health())
    state.shutdown()
report["numpy"] = "numpy" in sys.modules
print(json.dumps(report))
"""

_MAPPED = r"""
import json, os, sys

from repro.core.full_disjunction import full_disjunction
from repro.workloads.generators import chain_database

def answers(database):
    return [sorted(ts.labels()) for ts in full_disjunction(database, use_index=True)]

database = chain_database(
    relations=3, tuples_per_relation=6, domain_size=3, null_rate=0.2, seed=7
)
expected = answers(database)
report = {"before": "numpy" in sys.modules}
from repro.relational.catalog_file import load_database

mirror = database.catalog().packed_mirror()
report["backing"] = mirror.backing
path = os.path.join(sys.argv[1], "chain.rpmc")
database.save_mirror(path)
mapped = load_database(path)
report["attached"] = mapped.catalog().packed_mirror().backing
report["same"] = answers(mapped) == expected
report["after"] = "numpy" in sys.modules
print(json.dumps(report))
"""


def _run(script, *arguments, **environment):
    env = dict(os.environ, **environment)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    output = subprocess.check_output(
        [sys.executable, "-c", script, *arguments], env=env, text=True, cwd=ROOT
    )
    return json.loads(output.strip().splitlines()[-1])


def test_queries_retraction_and_the_durable_server_leave_numpy_unimported():
    report = _run(_QUERY_PATHS, os.path.join(ROOT, "perfbench", "inputs.py"))
    assert report["star"] == 486
    assert "kernel" not in report["statistics"]
    assert (report["first_k"], report["top_k"]) == (30, 5)
    assert report["primed"] == 486 and report["retracted"] > 0
    assert min(report["swept"]) >= 64
    assert report["evicted"][0] == report["evicted"][1] == report["evicted"][2] > 0
    assert "kernel" not in report["stats"] and "kernel" not in report["health"]
    assert report["numpy"] is False


@pytest.mark.skipif(not numpy_available(), reason="mapped catalogs need NumPy")
def test_a_mapped_catalog_attaches_and_answers_the_same(tmp_path):
    report = _run(_MAPPED, str(tmp_path), REPRO_MMAP="on")
    assert report["before"] is False
    assert report["backing"] == "mmap" and report["attached"] == "mmap"
    assert report["same"] is True
    assert report["after"] is True
