"""Queries, retraction, sessions and the durable server never import NumPy.

NumPy serves mapped catalogs alone: only writing or attaching a mirror file
(:mod:`repro.relational.catalog_file`) loads it, and without NumPy writing
one fails cleanly while queries answer.  Each case runs in a fresh
interpreter, because this test process may have imported NumPy already.
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
report["star"] = len(list(full_disjunction_sets(star, statistics=statistics)))
report["statistics"] = sorted(statistics.as_dict())
chain = inputs.chain(1, null_rate=0.05, **inputs.SCALES["full"]["chain"])
report["first_k"] = len(first_k(chain, inputs.FIRST_K))
ranking = MaxRanking({t.label: len(t.label) for t in star.tuples()})
report["top_k"] = len(top_k(star, ranking, 5))

maintainer = StreamingFullDisjunction(star, ranking=ranking)
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
store = CompleteStore(anchor_relation=None)
for result in results:
    for pool in pools:
        pool.add(result)
    store.add(result)
report["swept"] = [len(container) for container in pools + [store]]
report["evicted"] = [pool.discard_containing(dead) for pool in pools]
report["evicted"].append(len(store.retract_containing(dead)))

served = inputs.chain(1, null_rate=0.1, **inputs.SCALES["smoke"]["served"])
with tempfile.TemporaryDirectory() as data_dir:
    state = open_durable_server(served, data_dir)
    state.maintainer.prime()
    stats = asyncio.run(state.handle_request({"op": "stats"}))
    report["stats"] = sorted(stats)
    report["health"] = sorted(state.health())
    state.shutdown()
report["numpy"] = "numpy" in sys.modules
print(json.dumps(report))
"""

_MAPPED = r"""
import glob, json, os, sys, tempfile

from repro.core.full_disjunction import full_disjunction
from repro.workloads.generators import chain_database

def answers(database):
    return [sorted(ts.labels()) for ts in full_disjunction(database)]

def temp_mirrors():
    return set(glob.glob(os.path.join(tempfile.gettempdir(), "repro-mirror-*")))

database = chain_database(
    relations=3, tuples_per_relation=6, domain_size=3, null_rate=0.2, seed=7
)
report = {"before": "numpy" in sys.modules}
temp_before = temp_mirrors()
expected = answers(database)
report["unsaved"] = database.catalog().packed_mirror() is None
report["unsaved_numpy"] = "numpy" in sys.modules
report["temp_files"] = sorted(temp_mirrors() - temp_before)
from repro.relational.catalog_file import MirrorFile, load_database

path = os.path.join(sys.argv[1], "chain.rpmc")
database.save_mirror(path)
mapped = load_database(path)
report["attached"] = isinstance(mapped.catalog().packed_mirror(), MirrorFile)
report["same"] = answers(mapped) == expected
report["after"] = "numpy" in sys.modules
print(json.dumps(report))
"""

#: Installed as ``sitecustomize`` in a child: NumPy fails to import there.
_NO_NUMPY = r"""
import sys

class _NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError("NumPy is blocked in this interpreter")
        return None

sys.meta_path.insert(0, _NoNumpy())
"""

_WITHOUT_NUMPY = r"""
import json, os, sys

from repro.core.full_disjunction import full_disjunction
from repro.relational.catalog_file import MirrorFileError
from repro.relational.packed_mirror import numpy_available
from repro.workloads.generators import chain_database

database = chain_database(
    relations=3, tuples_per_relation=5, domain_size=3, null_rate=0.2, seed=7
)
path = os.path.join(sys.argv[1], "chain.rpmc")
report = {"numpy_available": numpy_available()}
try:
    database.save_mirror(path)
    report["refused"] = None
except MirrorFileError as error:
    report["refused"] = str(error)
report["written"] = os.path.exists(path)
report["mirror"] = database.catalog().packed_mirror() is not None
report["answers"] = len(full_disjunction(database))
print(json.dumps(report))
"""


def _environment(*paths, **environment):
    env = dict(os.environ, **environment)
    env["PYTHONPATH"] = os.pathsep.join(
        [*paths, os.path.join(ROOT, "src"), env.get("PYTHONPATH", "")]
    )
    return env


def _run(script, *arguments, **environment):
    output = subprocess.check_output(
        [sys.executable, "-c", script, *arguments],
        env=_environment(**environment),
        text=True,
        cwd=ROOT,
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
    """A catalog has no mirror until one is saved: with ``REPRO_MMAP=on`` and
    ``REPRO_MMAP_THRESHOLD=1`` set, no code builds one, imports NumPy or
    leaves a temporary mirror file."""
    report = _run(_MAPPED, str(tmp_path), REPRO_MMAP="on", REPRO_MMAP_THRESHOLD="1")
    assert report["before"] is False
    assert report["unsaved"] is True
    assert report["unsaved_numpy"] is False
    assert report["temp_files"] == []
    assert report["attached"] is True
    assert report["same"] is True
    assert report["after"] is True


def test_without_numpy_no_mirror_is_written_and_queries_answer(tmp_path):
    """``Database.save_mirror`` and ``repro pack`` refuse cleanly without
    NumPy and write nothing; the database keeps answering from its big ints."""
    blocker = tmp_path / "blocker"
    blocker.mkdir()
    (blocker / "sitecustomize.py").write_text(_NO_NUMPY)
    env = _environment(str(blocker))
    output = subprocess.check_output(
        [sys.executable, "-c", _WITHOUT_NUMPY, str(tmp_path)],
        env=env,
        text=True,
        cwd=ROOT,
    )
    report = json.loads(output.strip().splitlines()[-1])
    assert report["numpy_available"] is False
    assert report["refused"] == "mirror files require NumPy"
    assert report["written"] is False and report["mirror"] is False
    assert report["answers"] > 0

    out = tmp_path / "star.rpmc"
    packed = subprocess.run(
        [sys.executable, "-m", "repro", "pack", "--workload", "star", "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert packed.returncode != 0
    assert packed.stdout == ""
    assert packed.stderr.splitlines() == [
        "error: cannot pack mirror file: mirror files require NumPy"
    ]
    assert not out.exists()
