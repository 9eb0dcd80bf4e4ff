"""E17 — out-of-core catalogs: RSS under a budget, and latency.

Two claims about the mmap-backed mirror (`relational/catalog_file.py`),
measured end to end:

* **E17a — over-budget open + streaming.**  A chain database whose packed
  mirror file *exceeds* a capped RSS budget opens for serving bounded
  under the budget — attaching maps the matrix instead of materialising
  it, so the open-time footprint is the light tuple shell — and then
  streams its first-k answers with peak RSS still under the budget: a
  page governor (watermark + `MirrorFile.release_pages`) emulates the
  cap by dropping clean mapped pages, exactly what the kernel would do
  under real memory pressure.  The in-RAM configuration of the same
  database (unpickling its big-int catalog, with no mirror) busts the
  budget before streaming a single answer: it must hold the whole
  matrix as Python ints.  Both arms must stream identical
  answers; each runs in a fresh child process measured by its own
  ``VmHWM`` (Linux never resets ``ru_maxrss`` across ``exec``, so the
  child would otherwise inherit the benchmark parent's mark).
* **E17b — in-RAM-sized latency.**  On a fixture that comfortably fits in
  RAM, first-k through the attached (mmap) catalog stays within
  ``MAX_LATENCY_RATIO`` (2×) of the in-RAM run (big ints, no mirror),
  with identical ordered streams and ``sets_scanned``.

Set ``REPRO_BENCH_SMOKE=1`` to shrink the sweep (used by the CI smoke
job); the budget assertions only apply at full scale, where the mirror
actually dwarfs the budget.
"""

import json
import os
import pickle
import subprocess
import sys
import time

import pytest

from repro.core.full_disjunction import first_k
from repro.core.incremental import FDStatistics
from repro.relational.catalog_file import load_database
from repro.relational.packed_mirror import numpy_available
from repro.workloads.generators import chain_database, star_database

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="mirror files need NumPy"
)

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

#: E17a fixture: a chain database big enough that its mirror file exceeds
#: the RSS budget at full scale (n = 5 * tuples_per_relation).
CHAIN_SHAPE = dict(
    relations=5,
    tuples_per_relation=160 if SMOKE else 7200,
    domain_size=80 if SMOKE else 3600,
    null_rate=0.05,
    seed=11,
)

#: The capped RSS budget of E17a.  At full scale the n=36000 mirror is
#: ~156 MiB — comfortably above the cap — while attaching it maps the
#: matrix and materialises only the light tuple shell, well below it.
#: The in-RAM configuration must materialise the pickled big-int catalog
#: (≈ the matrix again, as Python ints) before it can serve at all.
BUDGET_BYTES = 144 * 2**20

#: Answers streamed by each E17a arm.
STREAM_K = 2

#: E17b fixture: in-RAM-sized (n=1200 full scale).
STAR_SHAPE = dict(
    spokes=3,
    tuples_per_relation=120 if SMOKE else 400,
    hub_domain=40,
    null_rate=0.1,
    seed=3,
)

#: E17b answers per arm, and the headline latency bound.
LATENCY_K = 8 if SMOKE else 24
MAX_LATENCY_RATIO = 2.0


def _chain():
    return chain_database(**CHAIN_SHAPE)


def _star():
    return star_database(**STAR_SHAPE)


# --------------------------------------------------------------------------- #
# E17a children — each arm runs in a fresh process so ru_maxrss is its own
# --------------------------------------------------------------------------- #

#: Shared by both children: stream first-k serially, report labels + RSS.
_CHILD_COMMON = """
import json, resource, sys, time

def peak_rss():
    # Linux never resets ru_maxrss across exec, so a subprocess would
    # inherit the fat benchmark parent's high-water mark at fork; VmHWM
    # belongs to the child's own mm and starts fresh.
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    raw = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return raw if sys.platform == "darwin" else raw * 1024

from repro.core.full_disjunction import first_k
"""

_ATTACHED_CHILD = _CHILD_COMMON + """
import threading
from repro.relational.catalog_file import load_database

path, k, watermark = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
started = time.perf_counter()
database = load_database(path)
attach_seconds = time.perf_counter() - started
open_rss = peak_rss()  # high-water so far: the whole cost of opening
handle = database.catalog().packed_mirror()

# The page governor: emulate a hard RSS cap by dropping clean mapped pages
# whenever the resident set crosses the watermark (the budget minus a
# fault-in allowance).  Under a real cgroup cap the kernel performs this
# same reclaim; here it is explicit so ru_maxrss proves the engine never
# *needs* more than the budget resident.
stop = threading.Event()

def current_rss():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmRSS"):
                return int(line.split()[1]) * 1024
    return 0

def governor():
    # 5 ms poll: one kernel row-gather can touch the whole matrix at memory
    # bandwidth, so the reclaim must keep up with the fault-in rate.
    while not stop.wait(0.005):
        if current_rss() > watermark:
            handle.release_pages()

thread = threading.Thread(target=governor, daemon=True)
thread.start()
results = []
started = time.perf_counter()
for tuple_set in first_k(database, k):
    results.append(sorted(tuple_set.labels()))
    handle.release_pages()
stream_seconds = time.perf_counter() - started
stop.set()
thread.join()
print(json.dumps({
    "results": results,
    "attach_seconds": attach_seconds,
    "open_rss_bytes": open_rss,
    "stream_seconds": stream_seconds,
    "peak_rss_bytes": peak_rss(),
}))
"""

_INRAM_CHILD = _CHILD_COMMON + """
import pickle

path, k = sys.argv[1], int(sys.argv[2])
started = time.perf_counter()
with open(path, "rb") as fh:
    database = pickle.load(fh)
load_seconds = time.perf_counter() - started
load_rss = peak_rss()
results = []
started = time.perf_counter()
for tuple_set in first_k(database, k):
    results.append(sorted(tuple_set.labels()))
stream_seconds = time.perf_counter() - started
print(json.dumps({
    "results": results,
    "load_seconds": load_seconds,
    "load_rss_bytes": load_rss,
    "stream_seconds": stream_seconds,
    "peak_rss_bytes": peak_rss(),
}))
"""


def _run_child(script: str, *args: str) -> dict:
    environment = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    existing = environment.get("PYTHONPATH")
    environment["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    output = subprocess.check_output(
        [sys.executable, "-c", script, *args], env=environment
    )
    return json.loads(output)


@pytest.fixture(scope="module")
def chain_fixture(tmp_path_factory):
    """Pack the E17a chain database once: mirror file + pickle twin."""
    directory = tmp_path_factory.mktemp("e17a")
    database = _chain()
    database.catalog()
    # Pickle BEFORE saving the mirror: a catalog pickled with a mirror file
    # ships its path and reattaches to the file (Catalog.__getstate__), so
    # the "in-RAM" configuration would carry a mapping it never reads.
    pickle_path = str(directory / "chain.pkl")
    with open(pickle_path, "wb") as handle:
        pickle.dump(database, handle, protocol=pickle.HIGHEST_PROTOCOL)
    mirror_path = str(directory / "chain.rpmc")
    database.save_mirror(mirror_path)
    return {
        "database": database,
        "mirror_path": mirror_path,
        "pickle_path": pickle_path,
        "mirror_bytes": os.path.getsize(mirror_path),
        "pickle_bytes": os.path.getsize(pickle_path),
    }


def test_e17a_over_budget_streaming(chain_fixture, report_table, report_memory):
    mirror_bytes = chain_fixture["mirror_bytes"]
    watermark = BUDGET_BYTES - 32 * 2**20
    attached = _run_child(
        _ATTACHED_CHILD, chain_fixture["mirror_path"], str(STREAM_K), str(watermark)
    )
    in_ram = _run_child(_INRAM_CHILD, chain_fixture["pickle_path"], str(STREAM_K))

    # The transport must be invisible: identical answer streams.
    assert attached["results"] == in_ram["results"]
    assert len(attached["results"]) == STREAM_K

    def mib(value):
        return f"{value / 2**20:.1f}"

    report_table(
        "E17a: open + first-%d over a capped RSS budget (%s MiB, mirror %s MiB)"
        % (STREAM_K, mib(BUDGET_BYTES), mib(mirror_bytes)),
        [
            "configuration",
            "open (s)",
            "open RSS (MiB)",
            "open under budget",
            "stream (s)",
            "peak RSS (MiB)",
        ],
        [
            [
                "attached (mmap + governor)",
                f"{attached['attach_seconds']:.3f}",
                mib(attached["open_rss_bytes"]),
                attached["open_rss_bytes"] <= BUDGET_BYTES,
                f"{attached['stream_seconds']:.3f}",
                mib(attached["peak_rss_bytes"]),
            ],
            [
                "in-RAM (unpickle)",
                f"{in_ram['load_seconds']:.3f}",
                mib(in_ram["load_rss_bytes"]),
                in_ram["load_rss_bytes"] <= BUDGET_BYTES,
                f"{in_ram['stream_seconds']:.3f}",
                mib(in_ram["peak_rss_bytes"]),
            ],
        ],
    )
    report_memory(
        "e17a-attached-open",
        attached["open_rss_bytes"],
        budget_bytes=BUDGET_BYTES,
    )
    report_memory("e17a-in-ram-open", in_ram["load_rss_bytes"])
    report_memory("e17a-attached-stream", attached["peak_rss_bytes"])
    report_memory("e17a-in-ram-stream", in_ram["peak_rss_bytes"])

    if not SMOKE:
        # The mirror alone does not fit the budget …
        assert mirror_bytes > BUDGET_BYTES
        # … yet attaching it opens for serving bounded under the budget
        # (the matrix is mapped, not materialised) …
        assert attached["open_rss_bytes"] <= BUDGET_BYTES, (
            f"attached open {attached['open_rss_bytes']} over budget {BUDGET_BYTES}"
        )
        # … and the governed stream stays bounded under it end to end
        # (measured ~118 MiB at n=36000: anonymous working state plus the
        # fault-in allowance above the watermark) …
        assert attached["peak_rss_bytes"] <= BUDGET_BYTES, (
            f"attached peak {attached['peak_rss_bytes']} over budget {BUDGET_BYTES}"
        )
        # … while the in-RAM configuration busts the budget before it can
        # stream a single answer.
        assert in_ram["load_rss_bytes"] > BUDGET_BYTES
        assert in_ram["peak_rss_bytes"] > BUDGET_BYTES


# --------------------------------------------------------------------------- #
# E17b — latency on the in-RAM-sized fixture
# --------------------------------------------------------------------------- #

def _stream_first_k(database, k):
    statistics = FDStatistics()
    started = time.perf_counter()
    results = [
        tuple(sorted(ts.labels()))
        for ts in first_k(database, k, statistics=statistics)
    ]
    seconds = time.perf_counter() - started
    return results, statistics.extras.get("complete_sets_scanned", 0), seconds


def test_e17b_in_ram_sized_latency(tmp_path, report_table):
    ram = _star()
    ram.catalog()
    mapped = _star()
    mapped.save_mirror(str(tmp_path / "star.rpmc"))

    ram_results, ram_scanned, ram_seconds = _stream_first_k(ram, LATENCY_K)
    attached = load_database(str(tmp_path / "star.rpmc"))
    att_results, att_scanned, att_seconds = _stream_first_k(attached, LATENCY_K)

    assert att_results == ram_results
    assert att_scanned == ram_scanned
    ratio = att_seconds / ram_seconds
    report_table(
        f"E17b: first-{LATENCY_K} latency, RAM vs attached mirror",
        ["backing", "first-k (s)", "sets scanned", "vs RAM"],
        [
            ["ram", f"{ram_seconds:.3f}", ram_scanned, "1.00x"],
            ["mmap (attached)", f"{att_seconds:.3f}", att_scanned, f"{ratio:.2f}x"],
        ],
    )
    if not SMOKE:
        assert ratio <= MAX_LATENCY_RATIO, (
            f"attached first-{LATENCY_K} is {ratio:.2f}x the RAM run"
        )
