"""The ``served-mixed`` server: one durable ``QueryServer`` on a local port.

Started by ``served.py`` as its own process::

    python3 perfbench/server_child.py --seed 1 --scale full --data-dir DIR \
        [--clock-out FILE] [--trace-out FILE]

It builds the workload database, opens a durable server on ``DIR`` (default
``fsync_every`` and ``snapshot_every``), primes the delta maintainer, then
prints ``READY <port> <before> <after>`` and serves until SIGTERM, where
``before`` and ``after`` are the seconds of two host-speed references it
timed first thing and just before ``READY``.  While it serves, it
times a short host-speed reference (``common.reference_seconds``) every
``CLOCK_INTERVAL`` seconds inside its event loop, and with ``--clock-out``
writes those ``[perf_counter, seconds]`` samples to ``FILE`` at shutdown:
the load's times are scaled by the speed of the process that did most of
the work, at the time it did it.  With ``--trace-out`` the
engine and serving layers are patched before anything is built, and the
span table is written to ``FILE`` at shutdown.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
import time

import common

#: Seconds between two reference timings, and the reference's rounds (a
#: quarter of the full reference, ~6-9 ms, so the loop stalls ~3% of the time).
CLOCK_INTERVAL = 0.25
CLOCK_ROUNDS = 3_000


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--clock-out")
    parser.add_argument("--trace-out")
    return parser.parse_args(argv)


async def host_clock(samples: list) -> None:
    """Time the reference every ``CLOCK_INTERVAL`` seconds until cancelled."""
    while True:
        await asyncio.sleep(CLOCK_INTERVAL)
        samples.append((time.perf_counter(), common.reference_seconds(CLOCK_ROUNDS)))


async def serve(args) -> dict:
    from inputs import SCALES, chain
    from repro.service.server import open_durable_server

    sizes = SCALES[args.scale]["served"]
    database = chain(args.seed, null_rate=0.1, **sizes)
    state = open_durable_server(database, args.data_dir, use_index=True)
    state.maintainer.prime()
    primed_candidates = state.maintainer.statistics.candidates_generated
    server = await asyncio.start_server(state.handle_connection, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    after = common.reference_seconds()
    print(f"READY {port} {args.reference_before} {after}", flush=True)
    clock: list = []
    sampler = asyncio.ensure_future(host_clock(clock))
    try:
        await stop.wait()
    finally:
        sampler.cancel()
        clock.append((time.perf_counter(), common.reference_seconds(CLOCK_ROUNDS)))
        if args.clock_out:
            with open(args.clock_out, "w", encoding="utf-8") as out:
                json.dump(clock, out)
        server.close()
        await server.wait_closed()
        delta_candidates = (
            state.maintainer.statistics.candidates_generated - primed_candidates
        )
        state.shutdown()
    return {"delta.candidates": delta_candidates}


def main(argv=None) -> int:
    before = common.reference_seconds()
    args = parse(argv)
    args.reference_before = before
    common.check_environment()
    probe = recorder = None
    if args.trace_out:
        from spans import ENGINE_TARGETS, SERVER_TARGETS, EngineProbe, SpanRecorder

        recorder = SpanRecorder()
        probe = EngineProbe(recorder)
        probe.install(ENGINE_TARGETS + SERVER_TARGETS)
        recorder.begin()
    extra = asyncio.run(serve(args))
    if probe is not None:
        from spans import layer_metrics, layer_table

        recorder.finish()
        probe.restore()
        layers = layer_metrics(recorder, probe)
        layers.update(extra)
        recorder.write(os.path.join(os.path.dirname(args.trace_out), "spans-served-mixed"))
        handle = recorder.table().get("server.handle", {"inclusive_s": 0.0, "count": 0})
        with open(args.trace_out, "w", encoding="utf-8") as out:
            json.dump(
                {
                    "layers": layers,
                    "table": layer_table(recorder),
                    "handle_inclusive_s": handle["inclusive_s"],
                    "handle_count": handle["count"],
                },
                out,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
