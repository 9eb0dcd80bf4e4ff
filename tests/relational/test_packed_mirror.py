"""The packed mirror: the catalog's bitmatrices as ``uint64`` word arrays.

The mirror (:mod:`repro.relational.packed_mirror`) backs mapped catalogs.
These tests hold its rows bit-for-bit to the catalog's big ints on both
backings (anonymous RAM arrays and a mapped file), through appends and
tombstones, across pickling and across processes, and check that the
engine returns the same stream on either backing.
"""

from __future__ import annotations

import os
import pickle
import random
import subprocess
import sys
from unittest import mock

import pytest

from repro.core.full_disjunction import full_disjunction
from repro.core.incremental import FDStatistics
from repro.relational.packed_mirror import numpy_available, unpack_to_int
from repro.workloads.generators import chain_database, random_database, star_database
from repro.workloads.tourist import tourist_database

pytestmark = pytest.mark.skipif(not numpy_available(), reason="the packed mirror needs NumPy")


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
#: (e.g. to give it a file-backed mirror) can clone any workload by name.
WORKLOAD_FACTORIES = dict(_workload_factories())
WORKLOAD_IDS = list(WORKLOAD_FACTORIES)

#: The mirror backings under test; both must be observationally identical.
MIRROR_BACKINGS = ["ram", "mmap"]


def _backed_database(name, backing, tmp_path):
    """A fresh instance of the named workload with the requested mirror.

    ``ram`` reuses the shared instances' behavior (anonymous NumPy arrays);
    ``mmap`` builds a private database whose catalog mirror lives in (and is
    maintained through) a file under ``tmp_path``.
    """
    database = WORKLOAD_FACTORIES[name]()
    catalog = database.catalog()
    if backing == "mmap":
        mirror = catalog.save_mirror(str(tmp_path / f"{name}.rpmc"))
        assert mirror.backing == "mmap"
    else:
        # Pin the RAM arm: the parametrization must hold even when the
        # ambient environment (e.g. a tiny REPRO_MMAP_THRESHOLD in CI)
        # would auto-select the file backing.
        with mock.patch.dict(os.environ, {"REPRO_MMAP": "off"}):
            mirror = catalog.packed_mirror()
        assert mirror.backing == "ram"
    return database


@pytest.mark.parametrize("backing", MIRROR_BACKINGS)
@pytest.mark.parametrize("name", WORKLOAD_IDS)
def test_mirror_matches_catalog_bigints(name, backing, tmp_path):
    database = _backed_database(name, backing, tmp_path)
    catalog = database.catalog()
    mirror = catalog.packed_mirror()
    assert mirror.backing == backing
    assert mirror.n == catalog.tuple_count
    for gid in range(catalog.tuple_count):
        assert mirror.row_as_int(gid) == catalog.consistent_mask(gid)
        assert int(mirror.tuple_relation[gid]) == catalog.relation_of_tuple(gid)
    for rid in range(catalog.relation_count):
        assert unpack_to_int(mirror.relation_tuples[rid]) == catalog.relation_tuples_mask(rid)
        assert unpack_to_int(mirror.adjacency[rid]) == catalog.adjacency_mask(rid)
    assert unpack_to_int(mirror.dead_words()) == catalog.dead_mask


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


@pytest.mark.parametrize("backing", MIRROR_BACKINGS)
def test_mirror_tracks_appends_and_tombstones(backing, tmp_path):
    database = chain_database(
        relations=3, tuples_per_relation=4, domain_size=3, null_rate=0.2, seed=3
    )
    catalog = database.catalog()
    if backing == "mmap":
        mirror = catalog.save_mirror(str(tmp_path / "tracked.rpmc"))
    else:
        with mock.patch.dict(os.environ, {"REPRO_MMAP": "off"}):
            mirror = catalog.packed_mirror()  # built before the mutations below
    assert mirror.backing == backing
    _mutate_40_steps(database, catalog)
    assert catalog.packed_mirror() is mirror  # maintained, not rebuilt
    assert mirror.n == catalog.tuple_count
    for gid in range(catalog.tuple_count):
        assert mirror.row_as_int(gid) == catalog.consistent_mask(gid)
    for rid in range(catalog.relation_count):
        assert unpack_to_int(mirror.relation_tuples[rid]) == catalog.relation_tuples_mask(rid)
    assert unpack_to_int(mirror.dead_words()) == catalog.dead_mask


def test_mirror_backings_are_bit_identical_under_mutation(tmp_path):
    """RAM and file word arrays, word for word, through the 40-step schedule.

    Twin databases run the identical mutation sequence — one mirrored in
    anonymous NumPy arrays, one maintained through a mapped file (including
    its capacity-doubling growth) — and every section must come out
    bit-for-bit equal.
    """
    import numpy as np

    def build():
        database = chain_database(
            relations=3, tuples_per_relation=4, domain_size=3, null_rate=0.2, seed=3
        )
        return database, database.catalog()

    ram_db, ram_catalog = build()
    ram = ram_catalog.packed_mirror()
    mmap_db, mmap_catalog = build()
    mapped = mmap_catalog.save_mirror(str(tmp_path / "twin.rpmc"))
    _mutate_40_steps(ram_db, ram_catalog)
    _mutate_40_steps(mmap_db, mmap_catalog)

    assert (ram.n, ram.width) == (mapped.n, mapped.width)
    n, width = ram.n, ram.width
    assert np.array_equal(ram.consistent[:n, :width], mapped.consistent[:n, :width])
    assert np.array_equal(ram.tuple_relation[:n], mapped.tuple_relation[:n])
    assert np.array_equal(
        ram.relation_tuples[:, :width], mapped.relation_tuples[:, :width]
    )
    assert np.array_equal(ram.adjacency, mapped.adjacency)
    assert np.array_equal(ram.dead_words(), mapped.dead_words())


def test_catalog_pickles_without_the_mirror():
    """Regression: a RAM mirror is dropped on pickle and rebuilt lazily.

    Without a durable file there is nothing to reattach to, so the
    unpickled catalog pays an O(n x width) rebuild on first mirror use —
    the documented cost that the file-backed path (`save_mirror` +
    ``_mirror_path`` in the pickled state) exists to avoid; see
    ``test_file_backed_catalog_reattaches_across_processes``.
    """
    database = tourist_database()
    catalog = database.catalog()
    mirror = catalog.packed_mirror()
    assert mirror is not None
    clone = pickle.loads(pickle.dumps(catalog))
    assert clone._packed_mirror is None  # workers rebuild lazily
    assert clone.packed_mirror().n == mirror.n
    assert clone.tuple_count == catalog.tuple_count


_REATTACH_CHILD = """
import pickle, sys
with open(sys.argv[1], "rb") as handle:
    catalog = pickle.load(handle)
mirror = catalog._packed_mirror
assert mirror is not None, "child had to rebuild instead of reattaching"
assert mirror.backing == "mmap"
assert mirror.file.readonly
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
    """The ordered result stream and the scan counters, with the catalog's
    mirror in anonymous RAM arrays and in a mapped file."""
    streams = {}
    scans = {}
    for backing in MIRROR_BACKINGS:
        database = _backed_database(name, backing, tmp_path)
        statistics = FDStatistics()
        results = full_disjunction(database, use_index=True, statistics=statistics)
        streams[backing] = [
            tuple(sorted((t.relation_name, t.label) for t in ts)) for ts in results
        ]
        scans[backing] = statistics.extras.get("complete_sets_scanned", 0)
    assert streams["ram"] == streams["mmap"]
    assert scans["ram"] == scans["mmap"]
