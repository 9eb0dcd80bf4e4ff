"""The mirror file's word arrays, bit for bit against the catalog's big ints.

A catalog's mirror (:class:`repro.relational.catalog_file.MirrorFile`) holds
its bitmatrices as ``uint64`` word arrays.  These tests hold its rows to the
big ints of a catalog built in RAM — for a file the catalog saved and for
one a fresh database attached — through appends and tombstones, across
pickling and across processes, and check that the engine returns the same
stream from an attached catalog as from one without a mirror.
"""

from __future__ import annotations

import os
import pickle
import random
import subprocess
import sys

import pytest

from repro.core.full_disjunction import full_disjunction
from repro.core.incremental import FDStatistics
from repro.relational.catalog_file import load_database
from repro.relational.packed_mirror import numpy_available, unpack_to_int
from repro.workloads.generators import chain_database, random_database, star_database
from repro.workloads.tourist import tourist_database

pytestmark = pytest.mark.skipif(not numpy_available(), reason="mirror files need NumPy")


def _workload_factories():
    yield "tourist", tourist_database
    yield "chain", lambda: chain_database(
        relations=3, tuples_per_relation=5, domain_size=3, null_rate=0.2, seed=7
    )
    yield "star", lambda: star_database(
        spokes=3, tuples_per_relation=4, hub_domain=2, seed=11
    )
    for seed in (0, 1):
        yield f"random-{seed}", lambda seed=seed: random_database(
            relations=3,
            attributes=5,
            arity=3,
            tuples_per_relation=4,
            domain_size=2,
            null_rate=0.25,
            seed=seed,
        )


#: Deterministic builders, so tests that need a private database instance
#: (e.g. to give it a mirror file) can clone any workload by name.
WORKLOAD_FACTORIES = dict(_workload_factories())
WORKLOAD_IDS = list(WORKLOAD_FACTORIES)

#: How the checked mirror is reached: the file a catalog saved and keeps
#: maintaining (``mmap``), or that file attached by a fresh database
#: (``attached``, rows read from the mapping).
MIRROR_ARMS = ["mmap", "attached"]


def _row(mirror, gid):
    return unpack_to_int(mirror.consistent[gid, : mirror.width])


def _assert_mirror_matches(mirror, catalog):
    """Every section of ``mirror`` against ``catalog``'s big ints."""
    assert mirror.n == catalog.tuple_count
    for gid in range(catalog.tuple_count):
        assert _row(mirror, gid) == catalog.consistent_mask(gid)
        assert int(mirror.tuple_relation[gid]) == catalog.relation_of_tuple(gid)
    for rid in range(catalog.relation_count):
        assert unpack_to_int(mirror.relation_tuples[rid]) == catalog.relation_tuples_mask(rid)
        assert unpack_to_int(mirror.adjacency[rid]) == catalog.adjacency_mask(rid)
    assert unpack_to_int(mirror.dead[: mirror.width]) == catalog.dead_mask


@pytest.mark.parametrize("arm", MIRROR_ARMS)
@pytest.mark.parametrize("name", WORKLOAD_IDS)
def test_mirror_matches_catalog_bigints(name, arm, tmp_path):
    database = WORKLOAD_FACTORIES[name]()
    catalog = database.catalog()
    path = str(tmp_path / f"{name}.rpmc")
    database.save_mirror(path)
    mirror = catalog.packed_mirror()
    if arm == "attached":
        mirror = load_database(path).catalog().packed_mirror()
        assert mirror.readonly
    _assert_mirror_matches(mirror, catalog)


def _mutate_40_steps(database, catalog):
    """The shared 40-step append/tombstone schedule (seeded, deterministic)."""
    rng = random.Random(17)
    for step in range(40):
        if rng.random() < 0.3:
            live = [
                t for t in database.tuples() if not catalog.is_tombstoned(t)
            ]
            if live:
                victim = rng.choice(live)
                database.remove_tuple(victim.relation_name, victim.label)
        else:
            relation = rng.choice(database.relations)
            values = [rng.choice([1, 2, 3, None]) for _ in relation.schema]
            database.add_tuple(relation.name, values, label=f"g{step}")


def _chain():
    return chain_database(
        relations=3, tuples_per_relation=4, domain_size=3, null_rate=0.2, seed=3
    )


@pytest.mark.parametrize("arm", MIRROR_ARMS)
def test_mirror_tracks_appends_and_tombstones(arm, tmp_path):
    """The 40-step schedule through a mirror, against big ints that took the
    same steps: the saving catalog's own (``mmap``), or a twin's without a
    mirror while a writable attachment takes the steps (``attached``)."""
    database = _chain()
    path = str(tmp_path / "tracked.rpmc")
    database.save_mirror(path)
    reference = database
    if arm == "attached":
        database = load_database(path, writable=True)
        reference = _chain()
        _mutate_40_steps(reference, reference.catalog())
    mirror = database.catalog().packed_mirror()
    _mutate_40_steps(database, database.catalog())
    assert database.catalog().packed_mirror() is mirror  # maintained, not rebuilt
    _assert_mirror_matches(mirror, reference.catalog())


def test_catalog_pickles_without_the_mirror():
    """A catalog without a mirror pickles to a clone without one: nothing
    is built on either side, and the big ints answer alone."""
    database = tourist_database()
    catalog = database.catalog()
    assert catalog.packed_mirror() is None
    clone = pickle.loads(pickle.dumps(catalog))
    assert clone.packed_mirror() is None
    assert clone.tuple_count == catalog.tuple_count
    for gid in range(catalog.tuple_count):
        assert clone.consistent_mask(gid) == catalog.consistent_mask(gid)


_REATTACH_CHILD = """
import pickle, sys
with open(sys.argv[1], "rb") as handle:
    catalog = pickle.load(handle)
mirror = catalog.packed_mirror()
assert mirror is not None, "the child did not reattach"
assert mirror.readonly
print(mirror.path)
print(",".join(str(catalog.consistent_mask(g)) for g in range(catalog.tuple_count)))
"""


def test_file_backed_catalog_reattaches_across_processes(tmp_path):
    """A pickled file-backed catalog reattaches to the same file in a worker.

    The pickle carries only the mirror *path* — the child process maps the
    identical bytes read-only (O(1), no rebuild) and serves the same
    consistency rows.
    """
    database = chain_database(
        relations=3, tuples_per_relation=4, domain_size=3, null_rate=0.2, seed=7
    )
    mirror_path = str(tmp_path / "shared.rpmc")
    database.save_mirror(mirror_path)
    catalog = database.catalog()
    pickle_path = str(tmp_path / "catalog.pkl")
    with open(pickle_path, "wb") as handle:
        pickle.dump(catalog, handle)

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    output = subprocess.check_output(
        [sys.executable, "-c", _REATTACH_CHILD, pickle_path], env=env, text=True
    )
    child_path, child_rows = output.strip().splitlines()
    assert os.path.realpath(child_path) == os.path.realpath(mirror_path)
    assert [int(row) for row in child_rows.split(",")] == [
        catalog.consistent_mask(gid) for gid in range(catalog.tuple_count)
    ]


@pytest.mark.parametrize("name", WORKLOAD_IDS)
def test_driver_stream_is_identical_across_backings(name, tmp_path):
    """The ordered result stream and the scan counters, from a catalog
    without a mirror and from one attached to a mirror file."""
    plain = WORKLOAD_FACTORIES[name]()
    path = str(tmp_path / f"{name}.rpmc")
    WORKLOAD_FACTORIES[name]().save_mirror(path)
    attached = load_database(path)
    assert plain.catalog().packed_mirror() is None
    assert attached.catalog().packed_mirror() is not None
    streams = {}
    scans = {}
    for arm, database in (("none", plain), ("attached", attached)):
        statistics = FDStatistics()
        results = full_disjunction(database, statistics=statistics)
        streams[arm] = [
            tuple(sorted((t.relation_name, t.label) for t in ts)) for ts in results
        ]
        scans[arm] = statistics.extras.get("complete_sets_scanned", 0)
    assert streams["none"] == streams["attached"]
    assert scans["none"] == scans["attached"]
