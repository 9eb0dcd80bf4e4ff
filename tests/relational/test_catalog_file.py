"""The on-disk catalog mirror: format, attach, growth, and corruption.

``catalog_file.MirrorFile`` is the persistent home of the packed mirror's
word arrays.  Its contract: ``Database.save_mirror`` followed by
``load_database`` reproduces an observationally identical database (same
tuples, same masks, same FD stream); the file survives in-place mutation
and capacity-doubling growth; and any corruption — header, payload, or a
sealed body — is rejected on open rather than silently served.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.core.full_disjunction import full_disjunction
from repro.core.incremental import FDStatistics
from repro.relational.catalog_file import (
    DEFAULT_MMAP_THRESHOLD,
    MirrorFile,
    MirrorFileError,
    load_database,
    mmap_threshold,
    read_snapshot_entries,
    resolve_backing,
)
from repro.relational.database import Database
from repro.workloads.generators import chain_database, star_database
from repro.workloads.tourist import tourist_database

np = pytest.importorskip("numpy")


def _stream(database):
    statistics = FDStatistics()
    results = full_disjunction(database, use_index=True, statistics=statistics)
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
        assert mirror.backing == "mmap"
        assert os.path.abspath(mirror.path) == os.path.abspath(path)
        # Further ingest maintains the file in place, not a RAM copy.
        import random

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
        import random

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
        handle = clone.catalog().packed_mirror().file
        assert handle.row_cap > row_cap or handle.word_cap > word_cap

    def test_readonly_attach_rejects_ingest(self, tmp_path):
        database = tourist_database()
        path = str(tmp_path / "ro.rpmc")
        database.save_mirror(path)
        reader = load_database(path)
        relation = reader.relations[0]
        with pytest.raises(MirrorFileError, match="writable=True"):
            reader.add_tuple(
                relation.name, [None for _ in relation.schema], label="nope"
            )

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
# backing selection
# --------------------------------------------------------------------- #
class TestBackingSelection:
    def test_forced_on_and_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_MMAP", "on")
        assert resolve_backing(1) == "mmap"
        monkeypatch.setenv("REPRO_MMAP", "off")
        assert resolve_backing(10**9) == "ram"

    def test_threshold_decides_in_auto_mode(self, monkeypatch):
        monkeypatch.delenv("REPRO_MMAP", raising=False)
        monkeypatch.setenv("REPRO_MMAP_THRESHOLD", "100")
        assert mmap_threshold() == 100
        assert resolve_backing(99) == "ram"
        assert resolve_backing(100) == "mmap"

    def test_default_threshold(self, monkeypatch):
        monkeypatch.delenv("REPRO_MMAP_THRESHOLD", raising=False)
        assert mmap_threshold() == DEFAULT_MMAP_THRESHOLD

    def test_invalid_settings_warn_and_fall_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_MMAP_THRESHOLD", "lots")
        with pytest.warns(RuntimeWarning, match="REPRO_MMAP_THRESHOLD"):
            assert mmap_threshold() == DEFAULT_MMAP_THRESHOLD
        monkeypatch.setenv("REPRO_MMAP", "sometimes")
        monkeypatch.setenv("REPRO_MMAP_THRESHOLD", str(10**9))
        with pytest.warns(RuntimeWarning, match="REPRO_MMAP"):
            assert resolve_backing(1) == "ram"

    def test_auto_selection_builds_an_ephemeral_file_mirror(self, monkeypatch):
        monkeypatch.setenv("REPRO_MMAP", "on")
        database = tourist_database()
        catalog = database.catalog()
        mirror = catalog.packed_mirror()
        assert mirror.backing == "mmap"
        path = mirror.path
        assert os.path.exists(path)
        assert mirror.file.ephemeral
        mirror.file.close()
        assert not os.path.exists(path)  # self-deleting temp file


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

    def test_ephemeral_mirrors_never_go_by_reference(self, monkeypatch):
        monkeypatch.setenv("REPRO_MMAP", "on")
        database = tourist_database()
        database.catalog().packed_mirror()  # ephemeral temp-file mirror
        state = database.snapshot_state()
        assert "tuples_ref" not in state
        assert "tuples" in state  # inline entries: the temp file may vanish


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
        mirror = clone._packed_mirror
        assert mirror is not None  # no lazy rebuild: O(1) reattach
        assert mirror.backing == "mmap"
        assert os.path.abspath(mirror.path) == os.path.abspath(path)
        assert mirror.file.readonly
        for gid in range(catalog.tuple_count):
            assert clone.consistent_mask(gid) == catalog.consistent_mask(gid)

    def test_stale_path_falls_back_to_lazy_rebuild(self, tmp_path):
        database = tourist_database()
        path = str(tmp_path / "vanishing.rpmc")
        database.save_mirror(path)
        catalog = database.catalog()
        blob = pickle.dumps(catalog)
        os.unlink(path)
        clone = pickle.loads(blob)
        assert clone._packed_mirror is None
        assert clone._mirror_path is None
        # The inline matrix survived the pickle, so everything still works.
        rebuilt = clone.packed_mirror()
        assert rebuilt.n == catalog.tuple_count
