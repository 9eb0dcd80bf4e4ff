"""The on-disk catalog mirror: format, attach, growth, and corruption.

``catalog_file.MirrorFile`` is the catalog's mirror: its bitmatrices as
word arrays in a mapped file.  Its contract: ``Database.save_mirror``
followed by ``load_database`` reproduces an observationally identical
database (same tuples, same masks, same FD stream); the file survives
in-place mutation and capacity-doubling growth; its bytes are pinned; a
read-only attachment refuses a mutation before anything changes; and any
corruption — header, payload, or a sealed body — is rejected on open
rather than silently served.
"""

from __future__ import annotations

import gc
import hashlib
import os
import pickle
import random
import warnings
import weakref

import pytest

from repro.core.full_disjunction import full_disjunction
from repro.core.incremental import FDStatistics
from repro.relational import catalog_file
from repro.relational.catalog_file import (
    MirrorFile,
    MirrorFileError,
    load_database,
    read_snapshot_entries,
)
from repro.relational.database import Database
from repro.workloads.generators import chain_database, star_database
from repro.workloads.tourist import tourist_database

np = pytest.importorskip("numpy")


def _stream(database):
    statistics = FDStatistics()
    results = full_disjunction(database, statistics=statistics)
    return (
        [tuple(sorted(ts.labels())) for ts in results],
        statistics.extras.get("complete_sets_scanned", 0),
    )


def _mutate(database, rng, steps):
    for step in range(steps):
        roll = rng.random()
        live = list(database.tuples())
        if roll < 0.25 and live:
            victim = rng.choice(live)
            database.remove_tuple(victim.relation_name, victim.label)
        elif roll < 0.4 and live:
            victim = rng.choice(live)
            values = [rng.choice([1, 2, 3, None]) for _ in victim.values]
            database.update_tuple(victim.relation_name, victim.label, values)
        else:
            relation = rng.choice(database.relations)
            values = [rng.choice([1, 2, 3, None]) for _ in relation.schema]
            database.add_tuple(relation.name, values, label=f"mut{step}")


#: One step of each mutation a database takes, on the tourist database.
MUTATIONS = {
    "add": lambda database: database.add_tuple(
        "Climates", ["Peru", "arid"], label="c9"
    ),
    "remove": lambda database: database.remove_tuple("Sites", "s4"),
    "update": lambda database: database.update_tuple(
        "Climates", "c2", ["UK", "rainy"]
    ),
}


def _rows(database):
    """Every relation's tuples, in scan order, with all their fields."""
    return [
        (
            relation.name,
            [(t.label, t.values, t.importance, t.probability) for t in relation],
        )
        for relation in database.relations
    ]


# --------------------------------------------------------------------- #
# save / load round-trip
# --------------------------------------------------------------------- #
class TestRoundTrip:
    def test_load_database_reproduces_tuples_and_masks(self, tmp_path):
        database = tourist_database()
        path = str(tmp_path / "tourist.rpmc")
        assert database.save_mirror(path) == path
        clone = load_database(path)
        assert clone.relation_names == database.relation_names
        assert {
            (t.relation_name, t.label, t.values) for t in clone.tuples()
        } == {(t.relation_name, t.label, t.values) for t in database.tuples()}
        original, attached = database.catalog(), clone.catalog()
        assert attached.tuple_count == original.tuple_count
        for gid in range(original.tuple_count):
            assert attached.consistent_mask(gid) == original.consistent_mask(gid)
            assert attached.relation_of_tuple(gid) == original.relation_of_tuple(gid)
        assert attached.dead_mask == original.dead_mask

    def test_attached_database_streams_identically(self, tmp_path):
        database = chain_database(
            relations=3, tuples_per_relation=5, domain_size=3, null_rate=0.2, seed=7
        )
        path = str(tmp_path / "chain.rpmc")
        database.save_mirror(path)
        clone = load_database(path)
        assert _stream(clone) == _stream(database)

    def test_attached_catalog_serves_consistency_from_the_file(self, tmp_path):
        database = star_database(spokes=3, tuples_per_relation=4, hub_domain=2, seed=11)
        path = str(tmp_path / "star.rpmc")
        database.save_mirror(path)
        clone = load_database(path)
        catalog = clone.catalog()
        # The big-int matrix is never materialised: rows are unpacked from
        # the mapped words on demand.
        assert not isinstance(catalog._consistent, list)
        assert len(catalog._consistent) == catalog.tuple_count
        assert catalog._consistent[0] == catalog.consistent_mask(0)
        assert catalog._consistent[-1] == catalog.consistent_mask(catalog.tuple_count - 1)
        with pytest.raises(IndexError):
            catalog._consistent[catalog.tuple_count]

    def test_dead_tuples_round_trip_as_tombstones(self, tmp_path):
        database = chain_database(
            relations=3, tuples_per_relation=4, domain_size=3, null_rate=0.1, seed=3
        )
        victim = next(iter(database.relations[0]))
        database.remove_tuple(victim.relation_name, victim.label)
        path = str(tmp_path / "dead.rpmc")
        database.save_mirror(path)
        clone = load_database(path)
        live = {(t.relation_name, t.label) for t in clone.tuples()}
        assert (victim.relation_name, victim.label) not in live
        assert clone.catalog().dead_mask == database.catalog().dead_mask
        assert _stream(clone) == _stream(database)

    def test_save_keeps_the_file_as_the_live_mirror(self, tmp_path):
        database = chain_database(
            relations=3, tuples_per_relation=4, domain_size=3, null_rate=0.2, seed=5
        )
        path = str(tmp_path / "live.rpmc")
        database.save_mirror(path)
        catalog = database.catalog()
        mirror = catalog.packed_mirror()
        assert isinstance(mirror, MirrorFile) and not mirror.readonly
        assert os.path.abspath(mirror.path) == os.path.abspath(path)
        # Further ingest maintains the file in place.
        _mutate(database, random.Random(13), steps=12)
        assert catalog.packed_mirror() is mirror
        handle = MirrorFile.open(path)
        try:
            assert handle.n == catalog.tuple_count
        finally:
            handle.close()


# --------------------------------------------------------------------- #
# writable attach + growth
# --------------------------------------------------------------------- #
class TestWritableAttach:
    def test_ingest_through_capacity_doubling_round_trips(self, tmp_path):
        database = chain_database(
            relations=3, tuples_per_relation=4, domain_size=3, null_rate=0.2, seed=9
        )
        path = str(tmp_path / "grow.rpmc")
        database.save_mirror(path)
        before = MirrorFile.open(path)
        row_cap, word_cap = before.row_cap, before.word_cap
        before.close()

        writer = load_database(path, writable=True)
        _mutate(writer, random.Random(31), steps=150)
        writer.catalog()  # flush catalog maintenance before reopening
        assert writer.tuple_count() > row_cap  # growth genuinely happened

        clone = load_database(path)
        assert _stream(clone) == _stream(writer)
        handle = clone.catalog().packed_mirror()
        assert handle.row_cap > row_cap or handle.word_cap > word_cap

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_readonly_attach_rejects_ingest(self, tmp_path, mutation):
        """A refused mutation changes nothing: not the relations, not the
        counters, not the attached catalog, and not the answers."""
        database = tourist_database()
        path = str(tmp_path / "ro.rpmc")
        database.save_mirror(path)
        reader = load_database(path)
        catalog = reader.current_catalog()
        assert catalog is not None and catalog.packed_mirror().readonly
        answers = _stream(reader)

        def state():
            return (
                _rows(reader),
                reader.epoch,
                reader.generation,
                reader.catalog_rebuilds,
            )

        before = state()
        with pytest.raises(MirrorFileError, match="writable=True"):
            MUTATIONS[mutation](reader)
        assert state() == before
        assert reader.current_catalog() is catalog
        assert _stream(reader) == answers
        assert state() == before  # the query rebuilt no catalog either

    def test_resaving_an_attached_catalog_moves_its_rows_to_the_new_file(self, tmp_path):
        database = tourist_database()
        first, second = str(tmp_path / "first.rpmc"), str(tmp_path / "second.rpmc")
        database.save_mirror(first)
        attached = load_database(first)
        attached.save_mirror(second)
        assert attached.catalog().packed_mirror().path == second
        for mutation in ("add", "remove", "update"):
            MUTATIONS[mutation](attached)
            MUTATIONS[mutation](database)
        assert _stream(attached) == _stream(database)
        assert _stream(load_database(second)) == _stream(database)
        assert load_database(first).tuple_count() == tourist_database().tuple_count()

    def test_two_writers_are_a_contract_violation_not_silent(self, tmp_path):
        """The single-writer contract: a second writable attach sees stale
        counts once the first writer appends — reopening after the writer is
        done is the supported flow, and it verifies."""
        database = tourist_database()
        path = str(tmp_path / "single.rpmc")
        database.save_mirror(path)
        writer = load_database(path, writable=True)
        relation = writer.relations[0]
        writer.add_tuple(relation.name, [None for _ in relation.schema], label="w1")
        reopened = load_database(path)
        assert reopened.tuple_count() == writer.tuple_count()


# --------------------------------------------------------------------- #
# integrity: seal, verify, corruption
# --------------------------------------------------------------------- #
class TestIntegrity:
    def _saved(self, tmp_path, name="f.rpmc"):
        database = tourist_database()
        path = str(tmp_path / name)
        database.save_mirror(path)
        return path

    def test_save_mirror_seals_and_the_body_verifies(self, tmp_path):
        path = self._saved(tmp_path)
        handle = MirrorFile.open(path)
        try:
            assert handle.sealed
            assert handle.verify_body()
        finally:
            handle.close()

    def test_mutation_clears_the_seal(self, tmp_path):
        path = self._saved(tmp_path)
        writer = load_database(path, writable=True)
        relation = writer.relations[0]
        writer.add_tuple(relation.name, [None for _ in relation.schema], label="x")
        handle = MirrorFile.open(path)
        try:
            assert not handle.sealed
            assert handle.verify_body()  # unsealed bodies vacuously verify
        finally:
            handle.close()

    def test_flipped_header_byte_is_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        with open(path, "r+b") as handle:
            handle.seek(16)
            byte = handle.read(1)
            handle.seek(16)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(MirrorFileError, match="header checksum"):
            MirrorFile.open(path)

    def test_flipped_payload_byte_is_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        handle = MirrorFile.open(path)
        offset = handle.payload_off
        handle.close()
        with open(path, "r+b") as raw:
            raw.seek(offset + 2)
            byte = raw.read(1)
            raw.seek(offset + 2)
            raw.write(bytes([byte[0] ^ 0x01]))
        with pytest.raises(MirrorFileError, match="payload checksum"):
            MirrorFile.open(path)

    def test_flipped_matrix_word_fails_seal_verification(self, tmp_path):
        path = self._saved(tmp_path)
        with open(path, "r+b") as raw:
            raw.seek(4100)  # inside the consistency matrix
            byte = raw.read(1)
            raw.seek(4100)
            raw.write(bytes([byte[0] ^ 0x01]))
        handle = MirrorFile.open(path)  # word sections carry no open-time CRC
        try:
            assert handle.sealed
            assert not handle.verify_body()
        finally:
            handle.close()

    def test_wrong_magic_is_rejected(self, tmp_path):
        path = str(tmp_path / "not-a-mirror.rpmc")
        with open(path, "wb") as handle:
            handle.write(b"\x00" * 8192)
        with pytest.raises(MirrorFileError):
            MirrorFile.open(path)

    def test_truncated_file_is_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        with open(path, "r+b") as handle:
            handle.truncate(64)
        with pytest.raises(MirrorFileError, match="truncated"):
            MirrorFile.open(path)

    @pytest.mark.parametrize(
        "shape, message",
        [
            ("header", "header checksum"),
            ("half", "shorter than its header claims"),
            ("metadata", "metadata is corrupt"),
            ("payload", "payload checksum"),
        ],
    )
    def test_a_refused_file_is_closed(self, tmp_path, monkeypatch, shape, message):
        """Every refusal after the file is opened closes its handle and its
        map before the error propagates, without waiting for the collector."""
        path = self._saved(tmp_path)
        handle = MirrorFile.open(path)
        meta_off, payload_off = handle.meta_off, handle.payload_off
        handle.close()
        size = os.path.getsize(path)
        with open(path, "r+b") as raw:
            if shape == "half":
                raw.truncate(size // 2)
            else:
                offset = {"header": 16, "metadata": meta_off, "payload": payload_off + 1}[
                    shape
                ]
                raw.seek(offset)
                byte = raw.read(1)
                raw.seek(offset)
                raw.write(bytes([byte[0] ^ 0xFF]))
        files, maps = [], []

        def recording_open(*args, **kwargs):
            files.append(open(*args, **kwargs))
            return files[-1]

        def recording_mmap(*args, **kwargs):
            maps.append(real_mmap(*args, **kwargs))
            return maps[-1]

        real_mmap = catalog_file.mmap.mmap
        monkeypatch.setattr(catalog_file, "open", recording_open, raising=False)
        monkeypatch.setattr(catalog_file.mmap, "mmap", recording_mmap)
        with pytest.raises(MirrorFileError, match=message):
            MirrorFile.open(path)
        assert len(files) == 1
        assert files[0].closed
        assert len(maps) == (0 if shape in ("header", "half") else 1)
        assert all(mapped.closed for mapped in maps)

    def test_missing_file_is_rejected(self, tmp_path):
        with pytest.raises(MirrorFileError, match="cannot open"):
            MirrorFile.open(str(tmp_path / "absent.rpmc"))

    def test_unstamped_file_cannot_be_attached(self, tmp_path):
        database = tourist_database()
        path = str(tmp_path / "unstamped.rpmc")
        # Catalog.save_mirror alone writes matrices but no generation stamp;
        # only Database.save_mirror (or `repro pack`) stamps.
        database.catalog().save_mirror(path)
        with pytest.raises(MirrorFileError, match="generation stamp"):
            load_database(path)

    def test_stale_generation_stamp_is_rejected(self, tmp_path):
        database = tourist_database()
        path = str(tmp_path / "stale.rpmc")
        database.save_mirror(path)
        handle = MirrorFile.open(path, writable=True)
        handle.stamp_generation((9, 9, 9, 9))
        handle.close()
        with pytest.raises(MirrorFileError, match="does not match the stamped"):
            load_database(path)


# --------------------------------------------------------------------- #
# where a mirror comes from
# --------------------------------------------------------------------- #
class TestMirrorSources:
    """A catalog has a mirror only when one was saved, attached or
    reattached on unpickling; ``packed_mirror()`` builds nothing."""

    def test_a_built_catalog_has_no_mirror(self):
        database = chain_database()
        catalog = database.catalog()
        assert catalog.packed_mirror() is None
        assert full_disjunction(database)
        victim = next(iter(database.relations[0]))
        database.remove_tuple(victim.relation_name, victim.label)
        relation = database.relations[1]
        database.add_tuple(relation.name, [1 for _ in relation.schema], label="new")
        assert database.catalog() is catalog
        assert catalog.packed_mirror() is None

    @pytest.mark.parametrize(
        "source", ["saved", "attached", "attached-writable", "unpickled"]
    )
    def test_the_mirror_is_the_file_it_came_from(self, tmp_path, source):
        database = tourist_database()
        path = str(tmp_path / "source.rpmc")
        database.save_mirror(path)
        catalog, readonly = {
            "saved": lambda: (database.catalog(), False),
            "attached": lambda: (load_database(path).catalog(), True),
            "attached-writable": lambda: (
                load_database(path, writable=True).catalog(),
                False,
            ),
            "unpickled": lambda: (pickle.loads(pickle.dumps(database.catalog())), True),
        }[source]()
        mirror = catalog.packed_mirror()
        assert isinstance(mirror, MirrorFile)
        assert mirror.path == os.path.abspath(path)
        assert mirror.readonly is readonly
        assert mirror.n == catalog.tuple_count
        assert catalog.packed_mirror() is mirror

    @pytest.mark.parametrize(
        "source", ["saved", "attached", "attached-writable", "unpickled"]
    )
    def test_a_collected_catalog_closes_its_mirror(self, tmp_path, source):
        """Nothing but its catalog keeps a mirror: collecting the catalog
        closes the mirror's map and file, so no ``ResourceWarning`` fires."""
        path = str(tmp_path / "source.rpmc")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            database = tourist_database()
            database.save_mirror(path)
            catalog = {
                "saved": lambda: database.catalog(),
                "attached": lambda: load_database(path).catalog(),
                "attached-writable": lambda: load_database(path, writable=True).catalog(),
                "unpickled": lambda: pickle.loads(pickle.dumps(database.catalog())),
            }[source]()
            mirror = weakref.ref(catalog.packed_mirror())
            del database, catalog
            gc.collect()
        assert mirror() is None
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


# --------------------------------------------------------------------- #
# snapshot by-reference tuples
# --------------------------------------------------------------------- #
class TestSnapshotReference:
    def test_file_backed_snapshot_records_a_reference(self, tmp_path):
        database = chain_database(
            relations=3, tuples_per_relation=4, domain_size=3, null_rate=0.2, seed=7
        )
        path = str(tmp_path / "snap.rpmc")
        database.save_mirror(path)
        state = database.snapshot_state()
        assert "tuples" not in state
        ref = state["tuples_ref"]
        assert os.path.abspath(ref["path"]) == os.path.abspath(path)
        assert ref["count"] == database.tuple_count()

    def test_restore_state_materialises_the_reference(self, tmp_path):
        database = chain_database(
            relations=3, tuples_per_relation=4, domain_size=3, null_rate=0.2, seed=7
        )
        database.save_mirror(str(tmp_path / "snap.rpmc"))
        state = database.snapshot_state()
        restored = Database.restore_state(state)
        assert {
            (t.relation_name, t.label, t.values) for t in restored.tuples()
        } == {(t.relation_name, t.label, t.values) for t in database.tuples()}
        assert _stream(restored) == _stream(database)

    def test_reference_prefix_survives_later_ingest(self, tmp_path):
        """The payload is append-only: a snapshot taken before more ingest
        still restores its exact prefix from the grown file."""
        import random

        database = chain_database(
            relations=3, tuples_per_relation=4, domain_size=3, null_rate=0.2, seed=7
        )
        database.save_mirror(str(tmp_path / "snap.rpmc"))
        state = database.snapshot_state()
        frozen = {(t.relation_name, t.label) for t in database.tuples()}
        _mutate(database, random.Random(5), steps=10)
        database.catalog()
        restored = Database.restore_state(state)
        assert {(t.relation_name, t.label) for t in restored.tuples()} == frozen

    def test_reference_to_a_missing_file_raises(self):
        with pytest.raises(MirrorFileError, match="cannot read"):
            read_snapshot_entries(
                {"path": "/nonexistent/mirror.rpmc", "count": 0,
                 "payload_length": 0, "dead_mask": "0"}
            )

    def test_reference_longer_than_the_file_raises(self, tmp_path):
        database = tourist_database()
        path = str(tmp_path / "short.rpmc")
        database.save_mirror(path)
        ref = database.snapshot_state()["tuples_ref"]
        ref = dict(ref, payload_length=int(ref["payload_length"]) + 4096)
        with pytest.raises(MirrorFileError, match="payload"):
            read_snapshot_entries(ref)

    def test_a_catalog_without_a_mirror_snapshots_inline(self):
        database = tourist_database()
        state = database.snapshot_state()
        assert "tuples_ref" not in state
        assert len(state["tuples"]) == database.tuple_count()
        assert database.catalog().packed_mirror() is None
        restored = Database.restore_state(state)
        assert restored.catalog().packed_mirror() is None
        assert _stream(restored) == _stream(database)


# --------------------------------------------------------------------- #
# pickling file-backed catalogs
# --------------------------------------------------------------------- #
class TestPickleReattach:
    def test_durable_mirror_reattaches_on_unpickle(self, tmp_path):
        database = chain_database(
            relations=3, tuples_per_relation=4, domain_size=3, null_rate=0.2, seed=7
        )
        path = str(tmp_path / "pickled.rpmc")
        database.save_mirror(path)
        catalog = database.catalog()
        clone = pickle.loads(pickle.dumps(catalog))
        mirror = clone.packed_mirror()
        assert mirror is not None  # O(1) reattach
        assert os.path.abspath(mirror.path) == os.path.abspath(path)
        assert mirror.readonly
        for gid in range(catalog.tuple_count):
            assert clone.consistent_mask(gid) == catalog.consistent_mask(gid)

    def test_stale_path_drops_the_mirror_and_keeps_the_big_ints(self, tmp_path):
        database = tourist_database()
        path = str(tmp_path / "vanishing.rpmc")
        database.save_mirror(path)
        blob = pickle.dumps(database)
        os.unlink(path)
        clone = pickle.loads(blob)
        catalog = clone.current_catalog()
        assert catalog is not None and catalog.packed_mirror() is None
        # The inline matrix survived the pickle, so the big ints answer.
        assert _stream(clone) == _stream(database)
        assert clone.current_catalog() is catalog

    def test_an_attached_catalog_needs_its_file_to_unpickle(self, tmp_path):
        database = tourist_database()
        path = str(tmp_path / "attached.rpmc")
        database.save_mirror(path)
        blob = pickle.dumps(load_database(path).catalog())
        os.unlink(path)
        with pytest.raises(MirrorFileError, match="cannot open"):
            pickle.loads(blob)

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_a_readonly_mirror_under_big_ints_is_dropped_on_mutation(
        self, tmp_path, mutation
    ):
        """A catalog unpickled beside its file reattaches read-only; the
        first mutation drops that mirror and maintains the big ints, which
        then answer like a database that never had a mirror."""
        database = tourist_database()
        path = str(tmp_path / "beside.rpmc")
        database.save_mirror(path)
        clone = pickle.loads(pickle.dumps(database))
        catalog = clone.current_catalog()
        assert catalog.packed_mirror().readonly
        twin = tourist_database()
        twin.catalog()
        MUTATIONS[mutation](clone)
        MUTATIONS[mutation](twin)
        assert clone.current_catalog() is catalog
        assert catalog.packed_mirror() is None
        assert clone.catalog_rebuilds == twin.catalog_rebuilds == 1
        assert _stream(clone) == _stream(twin)
        handle = MirrorFile.open(path)
        try:
            assert handle.n == database.tuple_count()  # the file is untouched
        finally:
            handle.close()


# --------------------------------------------------------------------- #
# the bytes of the format
# --------------------------------------------------------------------- #
def _saved_after_mutations(path):
    database = tourist_database()
    database.catalog()
    for mutation in ("remove", "update"):
        MUTATIONS[mutation](database)
    database.remove_tuple("Accommodations", "a1")
    database.save_mirror(path)


def _maintained_after_mutations(path):
    database = chain_database(
        relations=3, tuples_per_relation=4, domain_size=3, null_rate=0.2, seed=5
    )
    database.save_mirror(path)
    _mutate(database, random.Random(13), steps=40)


def _written_through_a_writable_attach(path):
    chain_database(
        relations=3, tuples_per_relation=4, domain_size=3, null_rate=0.2, seed=9
    ).save_mirror(path)
    _mutate(load_database(path, writable=True), random.Random(31), steps=150)


#: How each pinned file is written, and the SHA-256 of its bytes.  Writers
#: and readers of other versions share these files, so any change to a
#: byte must be deliberate (with a new ``FORMAT_VERSION``).
FORMAT_PINS = {
    "tourist": (
        lambda path: tourist_database().save_mirror(path),
        "25e745d4968ffa40eeb3cdb38e768659279ac198a6bfae7fc74597f48979efb3",
    ),
    "star": (
        lambda path: star_database(
            spokes=3, tuples_per_relation=4, hub_domain=2, seed=11
        ).save_mirror(path),
        "ca800141679618d42ff61ff926a71b2c1522e627dbfe7974a99ec6972874c8f1",
    ),
    "chain": (
        lambda path: chain_database(
            relations=3, tuples_per_relation=5, domain_size=3, null_rate=0.2, seed=7
        ).save_mirror(path),
        "c119a2dbe2cbc5f2c11c4fb5ff9d91325fa0744430d1a6d1bf4819cac9f7fe01",
    ),
    "saved-after-mutations": (
        _saved_after_mutations,
        "f8f4c5f90f2e5149e7188eb204c86b4fe7473dcdf0ddf8f97bc7d379df902cee",
    ),
    "maintained-after-mutations": (
        _maintained_after_mutations,
        "2e778bac5e217b9caebdaa8c4725080dad61b45b0162c2dcad9bc1c181b3a528",
    ),
    "writable-attach-150": (
        _written_through_a_writable_attach,
        "006f0f1ea98cf1478c3d807acca3788a72132d29b6fb1ee447b2350a6dfb4c64",
    ),
}


@pytest.mark.parametrize("name", list(FORMAT_PINS))
def test_the_file_bytes_are_pinned(tmp_path, name):
    write, digest = FORMAT_PINS[name]
    path = str(tmp_path / f"{name}.rpmc")
    write(path)
    with open(path, "rb") as handle:
        assert hashlib.sha256(handle.read()).hexdigest() == digest
