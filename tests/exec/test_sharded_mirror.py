"""The sharded backend over file-backed catalogs: zero-copy worker attach.

A database whose catalog mirror is a durable file ships ``(path,
generation)`` to its workers instead of a whole-database pickle; every
worker maps the same pages read-only.  The transport must be invisible:
ordered event streams and scan counters identical to the RAM-backed run
per backend, and identical across worker counts — including after
mutations, which restamp the file's generation in lockstep.
"""

from __future__ import annotations

import os

import pytest

from repro.core.full_disjunction import full_disjunction
from repro.core.incremental import FDStatistics
from repro.exec.sharded import (
    _database_payload,
    _mirror_reference,
    _payload_probe,
)
from repro.workloads.generators import chain_database

pytest.importorskip("numpy")

#: Worker counts the merged output must be byte-identical across.
WORKER_COUNTS = (1, 2, 4)


def _twin_databases(tmp_path):
    """Two identical databases: RAM-mirrored and file-mirrored."""

    def build():
        return chain_database(
            relations=3, tuples_per_relation=5, domain_size=3, null_rate=0.2, seed=7
        )

    ram = build()
    ram.catalog().packed_mirror()
    mapped = build()
    mapped.save_mirror(str(tmp_path / "twin.rpmc"))
    return ram, mapped


def _stream(database, backend):
    statistics = FDStatistics()
    results = full_disjunction(
        database, use_index=True, statistics=statistics, backend=backend
    )
    return (
        [tuple(sorted(ts.labels())) for ts in results],
        statistics.extras.get("complete_sets_scanned", 0),
    )


def _mutate(database):
    victim = next(iter(database.relations[0]))
    database.remove_tuple(victim.relation_name, victim.label)
    relation = database.relations[-1]
    database.add_tuple(
        relation.name, [1 for _ in relation.schema], label="late-arrival"
    )


class TestPayloadTransport:
    def test_durable_mirror_ships_a_path_reference(self, tmp_path):
        database = chain_database(
            relations=3, tuples_per_relation=4, domain_size=3, null_rate=0.2, seed=5
        )
        path = str(tmp_path / "ref.rpmc")
        database.save_mirror(path)
        reference = _mirror_reference(database)
        assert reference is not None
        assert os.path.realpath(reference[0]) == os.path.realpath(path)
        assert reference[1] == tuple(database.generation)
        _, blob = _database_payload(database)
        assert not isinstance(blob, bytes)

    def test_plain_databases_still_ship_the_pickle(self):
        database = chain_database(
            relations=3, tuples_per_relation=4, domain_size=3, null_rate=0.2, seed=5
        )
        database.catalog().packed_mirror()  # RAM mirror: nothing to reference
        assert _mirror_reference(database) is None
        _, blob = _database_payload(database)
        assert isinstance(blob, bytes)

    def test_ephemeral_mirrors_ship_the_pickle(self, monkeypatch):
        monkeypatch.setenv("REPRO_MMAP", "on")
        database = chain_database(
            relations=3, tuples_per_relation=4, domain_size=3, null_rate=0.2, seed=5
        )
        database.catalog().packed_mirror()  # self-deleting temp file
        assert _mirror_reference(database) is None

    def test_mutation_restamps_the_reference(self, tmp_path):
        database = chain_database(
            relations=3, tuples_per_relation=4, domain_size=3, null_rate=0.2, seed=5
        )
        database.save_mirror(str(tmp_path / "stamp.rpmc"))
        before = _mirror_reference(database)[1]
        _mutate(database)
        database.catalog()
        after = _mirror_reference(database)
        assert after is not None
        assert after[1] == tuple(database.generation)
        assert after[1] != before

    def test_both_transports_materialise_in_a_worker(self, tmp_path):
        ram, mapped = _twin_databases(tmp_path)
        assert _payload_probe(_database_payload(ram)) > 0.0
        assert _payload_probe(_database_payload(mapped)) > 0.0


class TestShardedParity:
    def test_streams_identical_across_backings_and_worker_counts(self, tmp_path):
        ram, mapped = _twin_databases(tmp_path)
        assert _stream(mapped, "serial") == _stream(ram, "serial")
        sharded = {}
        for workers in WORKER_COUNTS:
            spec = f"sharded:{workers}"
            ram_stream = _stream(ram, spec)
            mapped_stream = _stream(mapped, spec)
            assert mapped_stream == ram_stream
            sharded[workers] = mapped_stream
        # The merged output is a pure function of the database: worker
        # count must never reorder it.
        assert sharded[1] == sharded[2] == sharded[4]

    def test_parity_survives_mutations(self, tmp_path):
        ram, mapped = _twin_databases(tmp_path)
        _stream(ram, "sharded:2"), _stream(mapped, "sharded:2")  # warm run
        _mutate(ram)
        _mutate(mapped)
        for backend in ("serial", "sharded:2"):
            assert _stream(mapped, backend) == _stream(ram, backend)

    def test_readonly_attached_parent_fans_out(self, tmp_path):
        """A parent that *attached* the file (load_database) can shard too:
        the stamped generation matches, so workers map the same file."""
        from repro.relational.catalog_file import load_database

        ram, mapped = _twin_databases(tmp_path)
        reader = load_database(str(tmp_path / "twin.rpmc"))
        reference = _mirror_reference(reader)
        assert reference is not None and reference[1] == tuple(reader.generation)
        assert _stream(reader, "sharded:2") == _stream(ram, "sharded:2")
