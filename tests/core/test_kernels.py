"""The kernel layer: selection, the packed mirror, and per-op parity.

The packed kernel re-implements the big-int eviction sweep on NumPy
``uint64`` packed-word arrays; its contract is *observational identity*
with :class:`repro.core.kernels.bigint.BigintKernel` — same answers, in
the same order.  These tests
exercise the selection machinery (environment, override, NumPy gating),
the catalog's columnar mirror under appends and tombstones, and the
eviction sweep against the reference on randomized workloads.
"""

from __future__ import annotations

import os
import pickle
import random
from unittest import mock

import pytest

import repro.core.kernels as kernels
from repro.core.kernels import (
    KERNELS,
    active_kernel,
    numpy_available,
    resolve_kernel,
    use_kernel,
)
from repro.core.kernels.bigint import BigintKernel
from repro.core.incremental import FDStatistics, incremental_fd
from repro.core.tupleset import TupleSet
from repro.workloads.generators import chain_database, random_database, star_database
from repro.workloads.tourist import tourist_database

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="the packed kernel needs NumPy"
)

AVAILABLE_KERNELS = [
    name for name in KERNELS if name != "packed" or numpy_available()
]



def _vectorized(kernel):
    """Zero the packed kernel's small-batch cutoff.

    The cutoff delegates small inputs to the reference (the NumPy dispatch
    overhead outweighs the vector win there); parity tests force the
    vectorized path so it is exercised on small workloads too.
    """
    if hasattr(kernel, "MIN_DEAD"):
        kernel.MIN_DEAD = 0
    return kernel

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
WORKLOADS = [(name, make()) for name, make in WORKLOAD_FACTORIES.items()]
WORKLOAD_IDS = [name for name, _ in WORKLOADS]

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


def _random_jcc_set(rng, all_tuples, catalog=None):
    current = TupleSet.singleton(rng.choice(all_tuples))
    for t in rng.sample(all_tuples, len(all_tuples)):
        if rng.random() < 0.6 and current.can_absorb(t):
            current = current.with_tuple(t)
    return TupleSet(current.tuples, catalog=catalog) if catalog else current


# ------------------------------------------------------------------ #
# selection
# ------------------------------------------------------------------ #
def test_default_kernel_matches_numpy_availability(monkeypatch):
    # Neutralize any REPRO_KERNEL override so the *default* rule is tested.
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    with use_kernel(None):
        expected = "packed" if numpy_available() else "bigint"
        assert active_kernel().name == expected


def test_environment_variable_selects_kernel(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "bigint")
    with use_kernel(None):
        assert active_kernel().name == "bigint"


def test_unknown_kernel_name_is_rejected():
    with pytest.raises(ValueError, match="unknown kernel"):
        resolve_kernel("simd")


def test_use_kernel_restores_previous_choice():
    before = active_kernel().name
    with use_kernel("bigint") as kernel:
        assert kernel.name == "bigint"
        assert active_kernel() is kernel
    assert active_kernel().name == before


def test_packed_without_numpy_warns_and_degrades(monkeypatch):
    monkeypatch.setattr(kernels, "_numpy_checked", False)
    with pytest.warns(RuntimeWarning, match="requires NumPy"):
        kernel = resolve_kernel("packed")
    assert kernel.name == "bigint"


def test_default_without_numpy_is_bigint_silently(monkeypatch):
    monkeypatch.setattr(kernels, "_numpy_checked", False)
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    with use_kernel(None):
        assert active_kernel().name == "bigint"


@pytest.mark.parametrize("name", AVAILABLE_KERNELS)
def test_statistics_carry_the_kernel_tag(name):
    database = tourist_database()
    with use_kernel(name):
        statistics = FDStatistics()
        list(incremental_fd(database, "Climates", statistics=statistics))
        assert statistics.extras["kernel"] == name


# ------------------------------------------------------------------ #
# the packed mirror
# ------------------------------------------------------------------ #
@requires_numpy
@pytest.mark.parametrize("backing", MIRROR_BACKINGS)
@pytest.mark.parametrize("name", WORKLOAD_IDS)
def test_mirror_matches_catalog_bigints(name, backing, tmp_path):
    database = _backed_database(name, backing, tmp_path)
    catalog = database.catalog()
    mirror = catalog.packed_mirror()
    assert mirror.backing == backing
    from repro.core.kernels.packed import unpack_to_int

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


@requires_numpy
@pytest.mark.parametrize("backing", MIRROR_BACKINGS)
def test_mirror_tracks_appends_and_tombstones(backing, tmp_path):
    from repro.core.kernels.packed import unpack_to_int

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


@requires_numpy
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


@requires_numpy
def test_catalog_pickles_without_the_mirror():
    """Regression: a RAM mirror is dropped on pickle and rebuilt lazily.

    Without a durable file there is nothing to reattach to, so the
    unpickled catalog pays an O(n x width) rebuild on first kernel use —
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


@requires_numpy
def test_file_backed_catalog_reattaches_across_processes(tmp_path):
    """A pickled file-backed catalog reattaches to the same file in a worker.

    The pickle carries only the mirror *path* — the child process maps the
    identical bytes read-only (O(1), no rebuild) and serves the same
    consistency rows.
    """
    import os
    import subprocess
    import sys

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


# ------------------------------------------------------------------ #
# the eviction sweep: packed vs the big-int reference
# ------------------------------------------------------------------ #
@requires_numpy
def test_retraction_sweeps_parity_under_mutations():
    from repro.core.kernels.packed import PackedKernel

    database = chain_database(
        relations=3, tuples_per_relation=5, domain_size=3, null_rate=0.2, seed=9
    )
    catalog = database.catalog()
    all_tuples = list(database.tuples())
    rng = random.Random(61)
    sets = [_random_jcc_set(rng, all_tuples, catalog) for _ in range(12)]
    reference, packed = BigintKernel(), _vectorized(PackedKernel())
    for step in range(6):
        live = [t for t in database.tuples() if not catalog.is_tombstoned(t)]
        victim = rng.choice(live)
        if step % 2:
            values = [rng.choice([1, 2, 3]) for _ in victim.values]
            database.update_tuple(victim.relation_name, victim.label, values)
        else:
            database.remove_tuple(victim.relation_name, victim.label)
        dead = {t for t in all_tuples if catalog.is_tombstoned(t)}
        assert packed.batch_contains_dead(sets, dead) == (
            reference.batch_contains_dead(sets, dead)
        )


@requires_numpy
def test_batch_contains_dead_sees_equal_reincarnations():
    """An equal tuple appended after a tombstone must not hide the dead one.

    ``update_tuple`` back to the original values creates a *live* tuple equal
    to a tombstoned incarnation; the packed sweep must match the reference's
    Python-equality semantics, not the gid identity.
    """
    from repro.core.kernels.packed import PackedKernel

    database = chain_database(
        relations=2, tuples_per_relation=3, domain_size=2, null_rate=0.0, seed=2
    )
    catalog = database.catalog()
    target = next(iter(database.relations[0]))
    original_values = list(target.values)
    stale = TupleSet.singleton(target).attach_catalog(catalog)
    database.update_tuple(target.relation_name, target.label, [v if v is None else v for v in original_values])
    # Force a real round-trip: change then restore the original values.
    database.update_tuple(target.relation_name, target.label, [2 for _ in original_values])
    database.update_tuple(target.relation_name, target.label, original_values)
    dead = {target}
    reference, packed = BigintKernel(), _vectorized(PackedKernel())
    assert packed.batch_contains_dead([stale], dead) == (
        reference.batch_contains_dead([stale], dead)
    )


# ------------------------------------------------------------------ #
# the whole driver under each kernel and backing
# ------------------------------------------------------------------ #
@requires_numpy
@pytest.mark.parametrize("name", WORKLOAD_IDS)
def test_driver_stream_is_identical_across_kernels_and_backings(name, tmp_path):
    """The ordered result stream and the scan counters, three ways.

    The big-int run and the packed kernel on *both* mirror backings
    (anonymous RAM arrays and the mapped file, whose consistency rows the
    step then reads from the file) must agree byte for byte.
    """
    from repro.core.full_disjunction import full_disjunction

    streams = {}
    scans = {}
    modes = [("bigint", "ram"), ("packed", "ram"), ("packed", "mmap")]
    for kernel_name, backing in modes:
        database = _backed_database(name, backing, tmp_path)
        with use_kernel(kernel_name):
            statistics = FDStatistics()
            results = full_disjunction(database, use_index=True, statistics=statistics)
            streams[(kernel_name, backing)] = [
                tuple(sorted((t.relation_name, t.label) for t in ts))
                for ts in results
            ]
            scans[(kernel_name, backing)] = statistics.extras.get(
                "complete_sets_scanned", 0
            )
    assert streams[("bigint", "ram")] == streams[("packed", "ram")]
    assert streams[("packed", "ram")] == streams[("packed", "mmap")]
    assert scans[("bigint", "ram")] == scans[("packed", "ram")]
    assert scans[("packed", "ram")] == scans[("packed", "mmap")]
