"""Command-line interface: full disjunctions over CSV files.

The CLI makes the library usable without writing Python: point it at a set of
CSV files (one relation per file, header row = attribute names, ``⊥`` or empty
cells = nulls) and compute the full disjunction, its top-k under a ranking
attribute, its approximate variant, or the execution trace of one pass.

Examples
--------
::

    python -m repro fd sources/*.csv --limit 20
    python -m repro fd sources/*.csv --output fd.csv --use-index
    python -m repro topk sources/*.csv --k 5 --importance-attribute Stars
    python -m repro approx sources/*.csv --threshold 0.8 --similarity edit
    python -m repro trace sources/*.csv --anchor Climates
    python -m repro stream sources/*.csv --arrival-fraction 0.5 --batch-size 2
    python -m repro stream sources/*.csv --mode delta
    python -m repro stream sources/*.csv --mode delta --mutations 3
    python -m repro serve sources/*.csv --port 7411
    python -m repro serve --workload star --smoke-clients 4
    python -m repro serve --workload star --port 7411 --metrics-port 9100
    python -m repro trace star --out trace.json

Library errors (a missing or malformed CSV, say) print ``repro: error:
<message>`` and exit with status 2; a reader that closes the output early
(``repro fd … | head -1``) ends the run quietly.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from repro.core.approx import ApproximateFullDisjunction
from repro.core.approx_join import EditDistanceSimilarity, ExactMatchSimilarity, MinJoin
from repro.core.full_disjunction import FullDisjunction
from repro.core.priority import priority_incremental_fd
from repro.core.ranking import MaxRanking
from repro.core.trace import format_trace, trace_incremental_fd
from repro.relational import csv_io
from repro.relational.database import Database
from repro.relational.errors import ReproError
from repro.relational.nulls import is_null
from repro.workloads.streaming import (
    IngestEvent,
    ResultEvent,
    StreamSummary,
    hold_back_arrivals,
    inject_mutations,
    replay_stream,
)


def _load_database(paths: Sequence[str], null_token: str) -> Database:
    if not paths:
        raise SystemExit("error: at least one CSV file is required")
    return csv_io.load_database(paths, null_token=null_token)


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("csv", nargs="+", help="CSV files, one relation per file")
    parser.add_argument(
        "--null-token",
        default=csv_io.DEFAULT_NULL_TOKEN,
        help="cell value treated as null (default: ⊥; empty cells are always null)",
    )
    parser.add_argument(
        "--use-index",
        action="store_true",
        help="enable the Section 7 hash index on the Complete/Incomplete lists",
    )


def _command_fd(arguments: argparse.Namespace) -> int:
    database = _load_database(arguments.csv, arguments.null_token)
    fd = FullDisjunction(
        database,
        use_index=arguments.use_index,
        block_size=arguments.block_size,
    )
    if arguments.limit is not None:
        results = fd.first(arguments.limit)
        for tuple_set in results:
            print(tuple_set)
        print(f"({len(results)} answers shown; computation stopped early)")
        return 0
    print(fd.pretty())
    print(f"({len(fd.compute())} answers)")
    if arguments.output:
        path = csv_io.save_relation(fd.to_relation(), arguments.output)
        print(f"padded result written to {path}")
    return 0


def _attribute_importance(attribute: Optional[str]):
    """``imp(t)`` reading a numeric attribute (missing/invalid → 0)."""

    def importance(t):
        if attribute is None or not t.has_attribute(attribute):
            return 0.0
        value = t[attribute]
        if is_null(value):
            return 0.0
        try:
            return float(value)
        except (TypeError, ValueError):
            return 0.0

    return importance


def _command_topk(arguments: argparse.Namespace) -> int:
    database = _load_database(arguments.csv, arguments.null_token)
    ranking = MaxRanking(_attribute_importance(arguments.importance_attribute))
    ranked = priority_incremental_fd(
        database, ranking, k=arguments.k, use_index=arguments.use_index
    )
    for tuple_set, score in ranked:
        members = ", ".join(sorted(t.label for t in tuple_set))
        print(f"score {score:10.4f}   {{{members}}}")
    return 0


def _command_approx(arguments: argparse.Namespace) -> int:
    database = _load_database(arguments.csv, arguments.null_token)
    if arguments.similarity == "edit":
        similarity = EditDistanceSimilarity()
    else:
        similarity = ExactMatchSimilarity()
    afd = ApproximateFullDisjunction(
        database,
        MinJoin(similarity),
        threshold=arguments.threshold,
        use_index=arguments.use_index,
    )
    print(afd.pretty())
    print(f"({len(afd.compute())} answers at threshold {arguments.threshold})")
    return 0


def _command_stream(arguments: argparse.Namespace) -> int:
    from repro.service.delta import DeltaSummary, incremental_replay_stream

    if arguments.importance_attribute and not arguments.rank:
        raise SystemExit("error: --importance-attribute requires --rank")
    if arguments.mutations < 0:
        raise SystemExit("error: --mutations must be non-negative")
    database = _load_database(arguments.csv, arguments.null_token)
    workload = hold_back_arrivals(database, arguments.arrival_fraction)
    ops = workload.arrivals
    if arguments.mutations:
        try:
            ops = inject_mutations(
                workload, arguments.mutations, seed=arguments.mutation_seed
            )
        except ValueError as error:
            raise SystemExit(f"error: {error}") from None
    ranking = None
    if arguments.rank:
        # The streamed tuples carry their values, so an attribute-derived
        # importance scores arrivals and base tuples alike; without an
        # attribute, the importance stored on each tuple is used.
        spec = (
            _attribute_importance(arguments.importance_attribute)
            if arguments.importance_attribute
            else None
        )
        ranking = MaxRanking(spec)
    if arguments.mode == "delta":
        summary = DeltaSummary()
        events = incremental_replay_stream(
            workload.database,
            ops,
            batch_size=arguments.batch_size,
            use_index=arguments.use_index,
            summary=summary,
            ranking=ranking,
        )
    else:
        summary = StreamSummary()
        events = replay_stream(
            workload.database,
            ops,
            batch_size=arguments.batch_size,
            use_index=arguments.use_index,
            summary=summary,
            ranking=ranking,
        )
    for event in events:
        if isinstance(event, IngestEvent):
            print(f"-- applied {event.applied} op(s) "
                  f"({event.total_applied}/{len(ops)})")
        elif isinstance(event, ResultEvent):
            members = ", ".join(sorted(t.label for t in event.tuple_set))
            verb = "retract " if event.kind == "retract" else ""
            if event.score is not None:
                print(f"[after {event.after_arrivals:3d} ops] {verb}"
                      f"score {event.score:10.4f}   {{{members}}}")
            else:
                print(f"[after {event.after_arrivals:3d} ops] {verb}{{{members}}}")
    print(
        f"({len(summary.results)} standing answers over "
        f"{summary.arrivals_applied} streamed ops; "
        f"{summary.catalog_rebuilds} catalog build)"
    )
    if arguments.mutations:
        print(
            f"({arguments.mutations} mutations interleaved: tombstone "
            f"deletions and in-place updates; epoch "
            f"{workload.database.epoch})"
        )
    if arguments.mode == "delta":
        print(
            f"(delta maintenance: {summary.delta_work()} candidates generated "
            f"and {summary.retractions()} results retracted across "
            f"{len(summary.per_batch)} batches)"
        )
    return 0


#: Generated databases servable without CSV files (``repro serve --workload``).
SERVE_WORKLOADS = ("tourist", "star", "chain")


def _serve_database(arguments: argparse.Namespace) -> Database:
    if arguments.workload:
        from repro.workloads.generators import chain_database, star_database
        from repro.workloads.tourist import tourist_database

        if arguments.workload == "tourist":
            return tourist_database()
        if arguments.workload == "star":
            return star_database(
                spokes=3, tuples_per_relation=5, hub_domain=2, seed=arguments.seed
            )
        return chain_database(
            relations=3, tuples_per_relation=6, domain_size=3,
            null_rate=0.1, seed=arguments.seed,
        )
    return _load_database(arguments.csv, arguments.null_token)


def _command_serve(arguments: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.service.server import run_smoke, start_server

    if arguments.csv and arguments.workload:
        raise SystemExit(
            "error: give CSV files or --workload, not both"
        )
    if arguments.follow is not None:
        if arguments.data_dir is not None:
            raise SystemExit(
                "error: --follow tails a primary's --data-dir; a follower "
                "does not own one of its own"
            )
        if arguments.ranked:
            raise SystemExit("error: --ranked smoke does not apply to --follow")
    if arguments.data_dir is None and arguments.follow is None:
        if arguments.snapshot_every is not None:
            raise SystemExit("error: --snapshot-every requires --data-dir")
        if arguments.fsync_every is not None:
            raise SystemExit("error: --fsync-every requires --data-dir")
    if arguments.smoke_clients is not None and arguments.metrics_port is not None:
        # The smoke self-test runs to completion and exits; a metrics
        # sidecar would bind, serve nothing, and vanish — refuse the combo.
        raise SystemExit(
            "error: --metrics-port runs alongside a real server, "
            "not the --smoke-clients self-test"
        )
    if arguments.smoke_clients is None:
        # Options that only shape the smoke self-test would be silently
        # ignored by a real server; refuse them instead.
        ignored = [
            flag
            for flag, value in (("--k", arguments.k), ("--ranked", arguments.ranked))
            if value
        ]
        if ignored:
            raise SystemExit(
                f"error: {', '.join(ignored)} only applies with "
                "--smoke-clients"
            )
    async def _start_sidecar(metrics, health):
        if arguments.metrics_port is None:
            return None
        from repro.obs import start_sidecar

        sidecar = await start_sidecar(
            metrics, health, host=arguments.host, port=arguments.metrics_port
        )
        print(
            f"metrics sidecar on {arguments.host}:{sidecar.port} "
            "(GET /metrics, GET /health)"
        )
        return sidecar

    if arguments.follow is not None and arguments.smoke_clients is not None:
        # Follower parity self-test: bootstrap (or recover) a durable
        # primary on the followed directory, then serve concurrent
        # read-only clients from a follower of it and assert parity.
        from repro.service.follower import run_follower_smoke
        from repro.service.server import open_durable_server

        database = _serve_database(arguments)
        primary = open_durable_server(
            database, arguments.follow, use_index=arguments.use_index
        )
        try:
            outcome = run_follower_smoke(
                primary,
                arguments.follow,
                clients=arguments.smoke_clients,
                k=arguments.k,
            )
        finally:
            primary.shutdown()
        print(
            f"follower smoke OK: {arguments.smoke_clients} concurrent "
            f"read-only clients matched the primary's answers; "
            f"{outcome['records_applied']} WAL records replicated "
            f"(lag {outcome['lag_seconds'] * 1000.0:.1f} ms)"
        )
        return 0

    if arguments.follow is not None:
        from repro.service.follower import serve_follower

        async def _serve_follower() -> None:
            server, state, tailer, task, port = await serve_follower(
                arguments.follow, host=arguments.host, port=arguments.port
            )
            print(
                f"following {arguments.follow} on {arguments.host}:{port} "
                "(read-only; ops: open/next/peek/close/stats)"
            )
            sidecar = await _start_sidecar(state.render_metrics, state.health)
            stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(signum, stop.set)
            try:
                async with server:
                    await stop.wait()
            finally:
                tailer.stop()
                await task
                if sidecar is not None:
                    await sidecar.close()

        try:
            asyncio.run(_serve_follower())
        except KeyboardInterrupt:
            pass
        print("stopped")
        return 0

    database = _serve_database(arguments)
    if arguments.smoke_clients is not None:
        flavour = "ranked answers (scores included)" if arguments.ranked else "answers"
        engine = "ranked" if arguments.ranked else "fd"
        outcome = run_smoke(
            database,
            clients=arguments.smoke_clients,
            k=arguments.k,
            use_index=arguments.use_index,
            engine=engine,
        )
        cache = outcome["cache"]
        print(
            f"smoke OK: {outcome['clients']} concurrent clients each received "
            f"{outcome['results_per_client']} {flavour} identical to the serial "
            f"run (cache: {cache['hits']} hits / {cache['misses']} misses, "
            f"{outcome['requests']} requests)"
        )
        return 0

    async def _stop_signal() -> "asyncio.Event":
        # SIGTERM/SIGINT land here as a graceful stop: the serve loops
        # below fall out of ``stop.wait()`` and seal WALs and logs through
        # ``QueryServer.shutdown()`` — a durable server leaves a clean final
        # snapshot instead of a torn tail to recover.
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        return stop

    async def _serve() -> None:
        state = None
        if arguments.data_dir is not None:
            from repro.service.server import open_durable_server
            from repro.storage import DEFAULT_FSYNC_EVERY, DEFAULT_SNAPSHOT_EVERY

            state = open_durable_server(
                database,
                arguments.data_dir,
                use_index=arguments.use_index,
                snapshot_every=(
                    arguments.snapshot_every
                    if arguments.snapshot_every is not None
                    else DEFAULT_SNAPSHOT_EVERY
                ),
                fsync_every=(
                    arguments.fsync_every
                    if arguments.fsync_every is not None
                    else DEFAULT_FSYNC_EVERY
                ),
            )
        server, state, port = await start_server(
            database, host=arguments.host, port=arguments.port,
            use_index=arguments.use_index, state=state,
        )
        durable = ""
        if state.store is not None:
            recovery = state.store.recovery_info
            durable = (
                f", recovered from {arguments.data_dir} "
                f"(replayed {recovery.get('replayed_records', 0)} WAL records)"
                if recovery.get("recovered")
                else f", durable in {arguments.data_dir}"
            )
        print(
            f"serving {len(state.database)} relations on "
            f"{arguments.host}:{port}{durable} "
            "(JSON lines; ops: open/next/peek/close/ingest/stats)"
        )
        sidecar = await _start_sidecar(state.render_metrics, state.health)
        stop = await _stop_signal()
        try:
            async with server:
                await stop.wait()
        finally:
            if sidecar is not None:
                await sidecar.close()
            state.shutdown()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    print("stopped")
    return 0


def _command_trace(arguments: argparse.Namespace) -> int:
    # ``repro trace star --out trace.json`` profiles a generated workload:
    # accept a workload name in the positional slot as well as via --workload.
    if (
        not arguments.workload
        and len(arguments.csv) == 1
        and arguments.csv[0] in SERVE_WORKLOADS
    ):
        import os

        if not os.path.exists(arguments.csv[0]):
            arguments.workload = arguments.csv[0]
            arguments.csv = []
    if arguments.csv and arguments.workload:
        raise SystemExit("error: give CSV files or --workload, not both")
    database = _serve_database(arguments)
    if arguments.out:
        return _trace_profile(arguments, database)
    anchor = arguments.anchor or database.relation_names[0]
    trace = trace_incremental_fd(database, anchor, use_index=arguments.use_index)
    print(format_trace(trace))
    print(f"({trace.iterations} iterations, anchor relation {anchor!r})")
    return 0


def _trace_profile(arguments: argparse.Namespace, database: Database) -> int:
    """Run the full engine under a phase tracer and dump a Chrome trace."""
    from repro.obs import PhaseTracer, summarize_events, use_tracer

    tracer = PhaseTracer()
    with use_tracer(tracer):
        fd = FullDisjunction(database, use_index=arguments.use_index)
        answers = fd.compute()
    path = tracer.dump(arguments.out)
    events = tracer.events()
    print(f"trace written to {path} ({len(events)} events; "
          f"open in Perfetto or chrome://tracing)")
    print(f"({len(answers)} answers over {len(database)} relations)")
    summary = summarize_events(events)
    if summary:
        width = max(len(name) for name in summary)
        print(f"{'span':<{width}}  {'count':>6}  {'total_ms':>10}  {'max_ms':>10}")
        for name in sorted(summary, key=lambda n: -summary[n]["total_us"]):
            entry = summary[name]
            print(
                f"{name:<{width}}  {entry['count']:>6}  "
                f"{entry['total_us'] / 1000.0:>10.3f}  "
                f"{entry['max_us'] / 1000.0:>10.3f}"
            )
    return 0


def _command_pack(arguments: argparse.Namespace) -> int:
    # ``repro pack star --out db.rpmc``: accept a workload name in the
    # positional slot as well as via --workload, exactly like ``trace``.
    if (
        not arguments.workload
        and len(arguments.csv) == 1
        and arguments.csv[0] in SERVE_WORKLOADS
    ):
        import os

        if not os.path.exists(arguments.csv[0]):
            arguments.workload = arguments.csv[0]
            arguments.csv = []
    if arguments.csv and arguments.workload:
        raise SystemExit("error: give CSV files or --workload, not both")
    if not arguments.csv and not arguments.workload:
        raise SystemExit("error: give CSV files or --workload")
    database = _serve_database(arguments)
    try:
        from repro.relational.catalog_file import MirrorFile

        database.save_mirror(arguments.out)
        handle = MirrorFile.open(arguments.out)
    except Exception as error:
        raise SystemExit(f"error: cannot pack mirror file: {error}")
    try:
        size = handle.size_bytes()
        print(f"packed {handle.n} tuples over {handle.relation_count} relations "
              f"into {arguments.out}")
        print(f"({size} bytes, width {handle.width} words, "
              f"generation {tuple(handle.generation)}, "
              f"sealed={handle.sealed}, body intact={handle.verify_body()})")
    finally:
        handle.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Full disjunctions of CSV relations (Cohen & Sagiv, PODS 2005).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    fd_parser = subparsers.add_parser("fd", help="compute the full disjunction")
    _add_common_arguments(fd_parser)
    fd_parser.add_argument("--limit", type=int, default=None,
                           help="stop after this many answers (incremental retrieval)")
    fd_parser.add_argument("--block-size", type=int, default=None,
                           help="block-based execution with this block size (Section 7)")
    fd_parser.add_argument("--output", default=None,
                           help="write the padded result to this CSV file")
    fd_parser.set_defaults(handler=_command_fd)

    topk_parser = subparsers.add_parser("topk", help="top-k answers under f_max")
    _add_common_arguments(topk_parser)
    topk_parser.add_argument("--k", type=int, required=True, help="number of answers")
    topk_parser.add_argument(
        "--importance-attribute",
        default=None,
        help="numeric attribute used as the tuple importance imp(t) (missing/invalid -> 0)",
    )
    topk_parser.set_defaults(handler=_command_topk)

    approx_parser = subparsers.add_parser(
        "approx", help="(A_min, τ)-approximate full disjunction"
    )
    _add_common_arguments(approx_parser)
    approx_parser.add_argument("--threshold", type=float, required=True,
                               help="threshold τ in [0, 1]")
    approx_parser.add_argument("--similarity", choices=("edit", "exact"), default="edit",
                               help="pairwise similarity: normalised edit distance or exact match")
    approx_parser.set_defaults(handler=_command_approx)

    stream_parser = subparsers.add_parser(
        "stream",
        help="streaming ingest: hold back a fraction of every relation and "
        "replay it while serving results (append-only catalog maintenance)",
    )
    _add_common_arguments(stream_parser)
    stream_parser.add_argument(
        "--arrival-fraction", type=float, default=0.5,
        help="fraction of every relation's tuples replayed as arrivals (default: 0.5)",
    )
    stream_parser.add_argument(
        "--batch-size", type=int, default=1,
        help="arrivals ingested per recomputation step (default: 1)",
    )
    stream_parser.add_argument(
        "--mode", choices=("recompute", "delta"), default="recompute",
        help="per-batch strategy: full engine re-run with dedup, or true "
        "delta maintenance (each arrival seeds only its own singleton; "
        "with --rank, only the arrival's size-<=c subsets)",
    )
    stream_parser.add_argument(
        "--rank", action="store_true",
        help="serve the *ranked* full disjunction under f_max: results carry "
        "scores and each batch's new results are emitted in rank order",
    )
    stream_parser.add_argument(
        "--importance-attribute", default=None,
        help="numeric attribute used as imp(t) with --rank "
        "(default: the importance stored on each tuple)",
    )
    stream_parser.add_argument(
        "--mutations", type=int, default=0, metavar="N",
        help="interleave N mutations (tombstone deletions and in-place "
        "updates of base tuples) into the arrival stream; retracted "
        "results are announced as retract events",
    )
    stream_parser.add_argument(
        "--mutation-seed", type=int, default=0,
        help="seed for the mutation schedule (default: 0)",
    )
    stream_parser.set_defaults(handler=_command_stream)

    serve_parser = subparsers.add_parser(
        "serve",
        help="serve resumable first-k query sessions to concurrent clients "
        "over an asyncio JSON-lines TCP server",
    )
    serve_parser.add_argument(
        "csv", nargs="*", help="CSV files, one relation per file"
    )
    serve_parser.add_argument(
        "--workload", choices=SERVE_WORKLOADS, default=None,
        help="serve a generated workload instead of CSV files",
    )
    serve_parser.add_argument("--seed", type=int, default=0,
                              help="seed for generated workloads (default: 0)")
    serve_parser.add_argument(
        "--null-token", default=csv_io.DEFAULT_NULL_TOKEN,
        help="cell value treated as null (default: ⊥; empty cells are always null)",
    )
    serve_parser.add_argument("--use-index", action="store_true",
                              help="enable the Section 7 hash index")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=0,
                              help="TCP port (default: 0 = ephemeral)")
    serve_parser.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="also serve GET /metrics (Prometheus text) and GET /health "
        "(JSON) over HTTP on this port (0 = ephemeral)",
    )
    serve_parser.add_argument(
        "--data-dir", default=None, metavar="DIR",
        help="serve durably: write-ahead-log every mutation into DIR, "
        "snapshot periodically, and recover DIR's state on restart "
        "(the CSV/--workload database only seeds a fresh directory)",
    )
    serve_parser.add_argument(
        "--snapshot-every", type=int, default=None, metavar="N",
        help="with --data-dir: snapshot after every N WAL records "
        "(default: 64)",
    )
    serve_parser.add_argument(
        "--fsync-every", type=int, default=None, metavar="N",
        help="with --data-dir: fsync the WAL once per N appends "
        "(group commit; default: 8)",
    )
    serve_parser.add_argument(
        "--follow", default=None, metavar="DIR",
        help="serve as a read-only follower replica: restore the primary's "
        "latest snapshot from DIR and tail its WAL, applying its ops live; "
        "with --smoke-clients, run the follower parity self-test instead",
    )
    serve_parser.add_argument(
        "--smoke-clients", type=int, default=None, metavar="N",
        help="self-test: run N concurrent clients against an in-process "
        "server, assert result parity with a serial run, and exit",
    )
    serve_parser.add_argument(
        "--k", type=int, default=None,
        help="answers per client in --smoke-clients mode (default: all)",
    )
    serve_parser.add_argument(
        "--ranked", action="store_true",
        help="--smoke-clients parity over the ranked engine: clients open "
        "with a label-derived importance map and must receive the serial "
        "top-k stream, scores included",
    )
    serve_parser.set_defaults(handler=_command_serve)

    trace_parser = subparsers.add_parser(
        "trace",
        help="print the Incomplete/Complete trace of one IncrementalFD pass, "
        "or (--out) profile a full run and dump a Chrome trace",
    )
    trace_parser.add_argument(
        "csv", nargs="*",
        help="CSV files, one relation per file — or a workload name "
        f"({', '.join(SERVE_WORKLOADS)})",
    )
    trace_parser.add_argument(
        "--workload", choices=SERVE_WORKLOADS, default=None,
        help="trace a generated workload instead of CSV files",
    )
    trace_parser.add_argument("--seed", type=int, default=0,
                              help="seed for generated workloads (default: 0)")
    trace_parser.add_argument(
        "--null-token", default=csv_io.DEFAULT_NULL_TOKEN,
        help="cell value treated as null (default: ⊥; empty cells are always null)",
    )
    trace_parser.add_argument("--use-index", action="store_true",
                              help="enable the Section 7 hash index")
    trace_parser.add_argument("--anchor", default=None,
                              help="anchor relation R_i (default: the first relation)")
    trace_parser.add_argument(
        "--out", default=None, metavar="TRACE.json",
        help="run the full engine under the phase tracer and write "
        "Chrome-trace-event JSON here (open in Perfetto) instead of "
        "printing the one-pass Incomplete/Complete trace",
    )
    trace_parser.set_defaults(handler=_command_trace)

    pack_parser = subparsers.add_parser(
        "pack",
        help="pack a database into a sealed, memory-mappable catalog mirror "
        "file (servable out-of-core)",
    )
    pack_parser.add_argument(
        "csv", nargs="*",
        help="CSV files, one relation per file — or a workload name "
        f"({', '.join(SERVE_WORKLOADS)})",
    )
    pack_parser.add_argument(
        "--workload", choices=SERVE_WORKLOADS, default=None,
        help="pack a generated workload instead of CSV files",
    )
    pack_parser.add_argument("--seed", type=int, default=0,
                             help="seed for generated workloads (default: 0)")
    pack_parser.add_argument(
        "--null-token", default=csv_io.DEFAULT_NULL_TOKEN,
        help="cell value treated as null (default: ⊥; empty cells are always null)",
    )
    pack_parser.add_argument(
        "--out", required=True, metavar="MIRROR.rpmc",
        help="write the mirror file here (load with "
        "repro.relational.catalog_file.load_database)",
    )
    pack_parser.set_defaults(handler=_command_pack)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``python -m repro`` and the ``repro`` console script."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    try:
        status = arguments.handler(arguments)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader went away (``| head``): send the rest of the output,
        # the interpreter's final flush included, to devnull and stop.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except (ReproError, OSError) as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
