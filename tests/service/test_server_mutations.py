"""The mutation surface of the JSON-lines server: retract, update, padded rows."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.full_disjunction import full_disjunction_sets
from repro.obs.metrics import MetricsRegistry
from repro.relational.nulls import is_null
from repro.relational.operators import combined_schema, pad_tuple_set
from repro.service.server import (
    QueryServer,
    client_call,
    open_durable_server,
    start_server,
)
from repro.workloads.generators import star_database
from repro.workloads.tourist import tourist_database


def _run(coroutine):
    return asyncio.run(coroutine)


def _server(seed=1):
    database = star_database(spokes=3, tuples_per_relation=4, hub_domain=2, seed=seed)
    return database, QueryServer(database, use_index=True)


class TestRetractOp:
    def test_stream_sessions_observe_retract_events(self):
        async def scenario():
            database, server = _server()
            opened = await server.handle_request({"op": "open", "engine": "stream"})
            session = opened["session"]
            base = await server.handle_request(
                {"op": "next", "session": session, "k": 10_000}
            )
            victim = next(iter(database.relations[1]))
            outcome = await server.handle_request(
                {"op": "retract", "tuples": [[victim.relation_name, victim.label]]}
            )
            assert outcome["ok"]
            assert outcome["applied"] == 1
            tail = await server.handle_request(
                {"op": "next", "session": session, "k": 10_000}
            )
            retracts = [r for r in tail["results"] if isinstance(r, dict)]
            assert len(retracts) == outcome["retracted"] > 0
            assert all(victim.label in r["retract"] for r in retracts)
            # The net served stream equals a recompute on the mutated database.
            emitted = [r for r in base["results"]]
            emitted += [r for r in tail["results"] if not isinstance(r, dict)]
            for r in retracts:
                emitted.remove(r["retract"])
            fresh = sorted(
                sorted(t.label for t in ts)
                for ts in full_disjunction_sets(database, use_index=True)
            )
            assert sorted(emitted) == fresh
            stats = await server.handle_request({"op": "stats"})
            assert stats["mutations_applied"] == 1

        _run(scenario())

    def test_retract_revalidates_untouched_cached_prefixes(self):
        async def scenario():
            database, server = _server()
            opened = await server.handle_request(
                {"op": "open", "engine": "fd", "use_index": True}
            )
            first = await server.handle_request(
                {"op": "next", "session": opened["session"], "k": 2}
            )
            covered = {label for labels in first["results"] for label in labels}
            victim = next(t for t in database.tuples() if t.label not in covered)
            outcome = await server.handle_request(
                {"op": "retract", "tuples": [[victim.relation_name, victim.label]]}
            )
            assert outcome["revalidated_queries"] == 1
            assert outcome["invalidated_queries"] == 0
            # A fresh identical open serves the same prefix without recompute.
            reopened = await server.handle_request(
                {"op": "open", "engine": "fd", "use_index": True}
            )
            assert reopened["cached"] is True
            again = await server.handle_request(
                {"op": "next", "session": reopened["session"], "k": 2}
            )
            assert again["results"] == first["results"]
            assert server.cache.stats()["misses"] == 1

        _run(scenario())

    def test_bad_targets_are_client_errors(self):
        async def scenario():
            _, server = _server()
            missing = await server.handle_request(
                {"op": "retract", "tuples": [["Nope", "x1"]]}
            )
            assert not missing["ok"] and "Nope" in missing["error"]
            malformed = await server.handle_request(
                {"op": "retract", "tuples": [["OnlyRelation"]]}
            )
            assert not malformed["ok"]
            assert "pairs" in malformed["error"]

        _run(scenario())


class TestUpdateOp:
    def test_update_retracts_and_reemits_on_the_stream(self):
        async def scenario():
            database, server = _server()
            opened = await server.handle_request({"op": "open", "engine": "stream"})
            session = opened["session"]
            await server.handle_request(
                {"op": "next", "session": session, "k": 10_000}
            )
            target = next(iter(database.relations[0]))
            outcome = await server.handle_request(
                {
                    "op": "update",
                    "tuples": [
                        [
                            target.relation_name,
                            target.label,
                            [f"{value}X" for value in target.values],
                        ]
                    ],
                }
            )
            assert outcome["ok"] and outcome["applied"] == 1
            assert outcome["retracted"] > 0
            # Updates append fresh tuples: cached prefixes cannot ride through.
            assert outcome["revalidated_queries"] == 0
            tail = await server.handle_request(
                {"op": "next", "session": session, "k": 10_000}
            )
            retracts = [r for r in tail["results"] if isinstance(r, dict)]
            emits = [r for r in tail["results"] if not isinstance(r, dict)]
            assert len(retracts) == outcome["retracted"]
            assert len(emits) == outcome["new_results"]
            live = database.relation(target.relation_name).tuple_by_label(
                target.label
            )
            assert live.values == tuple(f"{value}X" for value in target.values)

        _run(scenario())

    def test_malformed_update_is_rejected(self):
        async def scenario():
            _, server = _server()
            malformed = await server.handle_request(
                {"op": "update", "tuples": [["R", "label"]]}
            )
            assert not malformed["ok"] and "triples" in malformed["error"]
            wrong_arity = await server.handle_request(
                {"op": "update", "tuples": [["Hub", "h1", ["just-one-value", "x", "y"]]]}
            )
            assert not wrong_arity["ok"]

        _run(scenario())


class TestPaddedFormat:
    def test_padded_rows_render_nulls_and_match_table2(self):
        async def scenario():
            database = tourist_database()
            server = QueryServer(database, use_index=True)
            opened = await server.handle_request(
                {"op": "open", "engine": "fd", "use_index": True, "format": "padded"}
            )
            assert opened["format"] == "padded"
            reply = await server.handle_request(
                {"op": "next", "session": opened["session"], "k": 10_000}
            )
            schema = combined_schema(database.relations)
            by_labels = {}
            for ts in full_disjunction_sets(database, use_index=True):
                padded = pad_tuple_set(ts, schema)
                by_labels[tuple(sorted(t.label for t in ts))] = {
                    attribute: (None if is_null(value) else value)
                    for attribute, value in padded.items()
                }
            assert len(reply["results"]) == len(by_labels)
            for result in reply["results"]:
                assert set(result) == {"labels", "row"}
                assert result["row"] == by_labels[tuple(result["labels"])]
                # Nulls cross the wire as JSON null, not a sentinel string.
                assert all(
                    value is None or not is_null(value)
                    for value in result["row"].values()
                )
            # At least one row genuinely exercises null rendering.
            assert any(
                None in result["row"].values() for result in reply["results"]
            )

        _run(scenario())

    def test_padded_ranked_results_keep_scores(self):
        async def scenario():
            database, server = _server()
            importance = {t.label: 1.0 for t in database.tuples()}
            opened = await server.handle_request(
                {
                    "op": "open",
                    "engine": "ranked",
                    "importance": importance,
                    "format": "padded",
                }
            )
            assert opened["ok"] and opened["ranked"]
            reply = await server.handle_request(
                {"op": "next", "session": opened["session"], "k": 3}
            )
            for result in reply["results"]:
                assert set(result) == {"labels", "row", "score"}
                assert result["score"] == 1.0

        _run(scenario())

    def test_padded_format_over_tcp(self):
        async def scenario():
            database = tourist_database()
            server, _, port = await start_server(database)
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                try:
                    opened = await client_call(
                        reader,
                        writer,
                        {"op": "open", "engine": "fd", "format": "padded"},
                    )
                    reply = await client_call(
                        reader,
                        writer,
                        {"op": "next", "session": opened["session"], "k": 2},
                    )
                    assert all(
                        set(result) == {"labels", "row"}
                        for result in reply["results"]
                    )
                finally:
                    writer.close()
                    await writer.wait_closed()
            finally:
                server.close()
                await server.wait_closed()

        _run(scenario())


class TestOpenValidation:
    def test_unknown_options_are_rejected_per_engine(self):
        """Each refusal names the option, counts as the client's error, and
        opens and persists nothing."""
        registry = MetricsRegistry()
        database = star_database(spokes=3, tuples_per_relation=4, hub_domain=2, seed=1)
        server = QueryServer(database, use_index=True, registry=registry)

        async def scenario():
            cases = [
                ({"op": "open", "engine": "fd", "threshold": 0.5}, "threshold"),
                # Every fd pass is seeded with the singletons of its
                # relation; the Section 7 reuse strategies are no option.
                (
                    {"op": "open", "engine": "fd", "initialization": "previous-results"},
                    "initialization",
                ),
                ({"op": "open", "engine": "approx", "importance": {}}, "importance"),
                ({"op": "open", "engine": "stream", "k": 3}, "k"),
                # The live stream log is built with the *server's* index
                # setting; a per-query use_index would be silently ignored.
                ({"op": "open", "engine": "stream", "use_index": True}, "use_index"),
                ({"op": "open", "engine": "ranked", "similarity": "edit"}, "similarity"),
            ]
            for request, offending in cases:
                reply = await server.handle_request(request)
                assert reply == {
                    "ok": False,
                    "error": (
                        f"unknown option(s) for engine {request['engine']!r}: {offending}"
                    ),
                }
            return len(cases)

        refused = _run(scenario())
        errors = registry.family("repro_request_errors_total")
        assert errors.labels(op="open", kind="client").value == refused
        assert errors.labels(op="open", kind="server").value == 0
        assert server.health()["sessions"] == 0
        assert server.durable_state()["cached"] == []

    def test_unknown_format_and_engine_and_op(self):
        async def scenario():
            _, server = _server()
            bad_format = await server.handle_request(
                {"op": "open", "engine": "fd", "format": "csv"}
            )
            assert not bad_format["ok"] and "format" in bad_format["error"]
            bad_engine = await server.handle_request(
                {"op": "open", "engine": "nope"}
            )
            assert not bad_engine["ok"] and "engine" in bad_engine["error"]
            bad_op = await server.handle_request({"op": "frobnicate"})
            assert not bad_op["ok"] and "unknown op" in bad_op["error"]

        _run(scenario())

    def test_valid_options_still_pass(self):
        async def scenario():
            _, server = _server()
            good = await server.handle_request(
                {"op": "open", "engine": "fd", "use_index": True}
            )
            assert good["ok"]

        _run(scenario())


#: Mutation batches whose second entry is bad: an unknown target, or an
#: arrival without values.
MIXED_BATCHES = {
    "retract": [["Climates", "c1"], ["Climates", "nope"]],
    "update": [["Climates", "c1", ["Canada", "mild"]], ["Climates", "nope", ["X", "Y"]]],
    "ingest": [["Climates", ["Atlantis", "mild"]], ["Climates"]],
}


class TestRefusedBatches:
    @pytest.mark.parametrize("op", sorted(MIXED_BATCHES))
    def test_a_batch_with_one_bad_entry_changes_nothing(self, tmp_path, op):
        """The whole batch is refused: nothing is applied or logged, and the
        cached prefix keeps serving what it served before."""
        server = open_durable_server(
            tourist_database(), str(tmp_path), snapshot_every=None
        )
        fd = {"op": "open", "engine": "fd", "use_index": True}

        async def scenario():
            opened = await server.handle_request(dict(fd))
            before = await server.handle_request(
                {"op": "next", "session": opened["session"], "k": 100}
            )
            refused = await server.handle_request(
                {"op": op, "tuples": MIXED_BATCHES[op]}
            )
            reopened = await server.handle_request(dict(fd))
            after = await server.handle_request(
                {"op": "next", "session": reopened["session"], "k": 100}
            )
            stats = await server.handle_request({"op": "stats"})
            return before, refused, reopened, after, stats

        try:
            before, refused, reopened, after, stats = _run(scenario())
        finally:
            server.shutdown()
        assert refused["ok"] is False and refused["error"]
        assert reopened["cached"] is True
        assert after["results"] == before["results"] and after["exhausted"]
        assert stats["arrivals_applied"] == stats["mutations_applied"] == 0
        assert stats["epoch"] == 0
        assert stats["durability"]["wal"]["records_appended"] == 0
        assert stats["durability"]["wal"]["offset"] == 0
