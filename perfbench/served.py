"""The ``served-mixed`` workload: a durable server over TCP under a closed loop.

The server runs in its own process (``server_child.py``).  One client
process drives it through two connections, each sending its next request
only after the previous reply (cursor clients wait for every page).  Run as
a script, this module is that client::

    python3 perfbench/served.py PORT SEED SCALE

The two connections:

* the reader pages ``fd`` sessions: ``open``, ``next`` k=20, two ``next``
  k=5, ``close``;
* the writer does the same, and sends one write before every other
  session.  Writes follow the fixed ``update -> retract -> ingest`` cycle
  of :class:`inputs.WriteScript`, which the client also applies to its own
  copy of the database.

A reply saying the database moved to a new generation is the server's
documented fail-fast contract: it is counted as a stale reopen and the
session is opened again.  Any other ``ok: false``, a dropped connection or
a wrong answer counts as failed.  At the end a drained ``fd`` session must
equal ``full_disjunction`` of the client's copy, by label sets.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time
from typing import List, Optional

from common import (
    OUT, SOURCE, SetupError, mean, median, peak_rss_mb, percentile, speed_factor, tail_ok,
)
from inputs import SCALES, WriteScript, chain, label_sets

#: Each server and client pair runs this many writer sessions, with a write
#: before every other one, so every pair takes its database through the same
#: writes whatever the host speed.
WRITER_TURNS = 320
#: Pairs run until their load adds up to ``--seconds``, and at least this many.
MIN_SERVERS = 4
READY_TIMEOUT = 120.0
STOP_TIMEOUT = 60.0
FIRST_PAGE = 20
PAGE = 5
PAGES = 2
STALE = "reopen the query"


class ServerProcess:
    """One server child: spawn, wait for ``READY``, stop, always reaped.

    ``setup_s`` is spawn to ``READY`` less the two references the child timed
    (first thing and just before ``READY``), scaled by their mean: the child's
    own speed, which the parent's can differ from by 30% at the same moment.
    """

    counter = 0

    def __init__(self, seed: int, scale: str, trace_out: Optional[str] = None):
        ServerProcess.counter += 1
        tag = f"{os.getpid()}-{ServerProcess.counter}"
        self.data_dir = os.path.join(OUT, f"served-{tag}")
        shutil.rmtree(self.data_dir, ignore_errors=True)
        os.makedirs(OUT, exist_ok=True)
        self.log_path = os.path.join(OUT, f"server-{tag}.log")
        self.clock_path = os.path.join(OUT, f"clock-{tag}.json")
        self.clock: List[list] = []
        command = [
            sys.executable,
            os.path.join(os.path.dirname(os.path.abspath(__file__)), "server_child.py"),
            "--seed", str(seed), "--scale", scale, "--data-dir", self.data_dir,
            "--clock-out", self.clock_path,
        ]
        if trace_out:
            command += ["--trace-out", trace_out]
        self._log = open(self.log_path, "w", encoding="utf-8")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._log, text=True
        )
        try:
            self.port, before, after = self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.setup_factor = speed_factor((before + after) / 2)
        self.setup_s = (time.perf_counter() - started - before - after) * self.setup_factor

    def _wait_ready(self):
        """The port and the two reference timings from the ``READY`` line."""
        deadline = time.monotonic() + READY_TIMEOUT
        while time.monotonic() < deadline:
            readable, _, _ = select.select([self.process.stdout], [], [], 0.5)
            if readable:
                line = self.process.stdout.readline()
                if line.startswith("READY "):
                    _, port, before, after = line.split()
                    return int(port), float(before), float(after)
                if not line:
                    break
            elif self.process.poll() is not None:
                break
        raise SetupError(f"server did not become ready; see {self.log_path}")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def stop(self) -> int:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()
        shutil.rmtree(self.data_dir, ignore_errors=True)
        if os.path.exists(self.clock_path):
            with open(self.clock_path, encoding="utf-8") as handle:
                self.clock = json.load(handle)
            os.remove(self.clock_path)
        return self.process.returncode

    def host_factor(self, began: float, ended: float) -> float:
        """The speed factor over ``[began, ended]`` from the server's own
        reference timings (all of them if none fall inside); after :meth:`stop`."""
        from server_child import CLOCK_ROUNDS

        inside = [seconds for stamp, seconds in self.clock if began <= stamp <= ended]
        samples = inside or [seconds for _, seconds in self.clock]
        if not samples:
            raise SetupError(f"the server timed no reference; see {self.log_path}")
        return speed_factor(mean(samples), CLOCK_ROUNDS)


class Tally:
    """What the client saw, per request kind."""

    #: The sample lists that hold times.
    TIMED = ("open_ms", "next_ms", "write_ms", "first_answer", "first_k", "session_total")

    def __init__(self):
        self.requests = 0
        self.failed = 0
        self.stale_reopens = 0
        self.rtt_total = 0.0
        self.answers = 0
        self.open_ms: List[float] = []
        self.next_ms: List[float] = []
        self.write_ms: List[float] = []
        self.first_answer: List[float] = []
        self.first_k: List[float] = []
        self.session_total: List[float] = []
        self.problems: List[str] = []
        self.wrong = False

    def fail(self, what: str, wrong_answer: bool = False) -> None:
        self.failed += 1
        self.wrong = self.wrong or wrong_answer
        if len(self.problems) < 5:
            self.problems.append(what)

    def absorb(self, other: dict, factor: float = 1.0) -> None:
        """Add another client process's tally (``vars`` of a ``Tally``),
        its times multiplied by ``factor``."""
        for name, value in other.items():
            if name in self.TIMED:
                value = [sample * factor for sample in value]
            if name == "wrong":
                self.wrong = self.wrong or value
            elif name == "problems":
                self.problems = (self.problems + value)[:5]
            else:
                setattr(self, name, getattr(self, name) + value)


class Connection:
    def __init__(self, reader, writer, tally: Tally):
        self.reader, self.writer, self.tally = reader, writer, tally

    @classmethod
    async def open(cls, port: int, tally: Tally) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer, tally)

    async def call(self, request: dict):
        started = time.perf_counter()
        self.writer.write(json.dumps(request).encode() + b"\n")
        await self.writer.drain()
        line = await self.reader.readline()
        rtt = time.perf_counter() - started
        self.tally.requests += 1
        self.tally.rtt_total += rtt
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line), rtt

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def paged_session(conn: Connection) -> None:
    """open, first page, ``PAGES`` pages, close; reopened on a stale reply."""
    tally = conn.tally
    while True:
        started = time.perf_counter()
        opened, open_rtt = await conn.call({"op": "open", "engine": "fd", "use_index": True})
        if not opened.get("ok"):
            tally.fail(f"open: {opened.get('error')}")
            return
        session = opened["session"]
        answers: List[frozenset] = []
        page_ms: List[float] = []
        stale = failed = False
        first_answer = None
        for k in [FIRST_PAGE] + [PAGE] * PAGES:
            reply, rtt = await conn.call({"op": "next", "session": session, "k": k})
            if not reply.get("ok"):
                stale = STALE in str(reply.get("error", ""))
                failed = not stale
                if failed:
                    tally.fail(f"next: {reply.get('error')}")
                break
            answers.extend(frozenset(labels) for labels in reply["results"])
            if first_answer is None:
                first_answer = time.perf_counter() - started
            else:
                page_ms.append(rtt * 1e3)
        reached_k = time.perf_counter() - started
        closed, _ = await conn.call({"op": "close", "session": session})
        if not closed.get("ok"):
            tally.fail(f"close: {closed.get('error')}")
            return
        if failed:
            return
        if stale:
            tally.stale_reopens += 1
            continue
        if len(answers) != FIRST_PAGE + PAGE * PAGES or len(set(answers)) != len(answers):
            tally.fail(
                f"session returned {len(set(answers))} distinct of {len(answers)}",
                wrong_answer=True,
            )
            return
        tally.answers += len(answers)
        tally.open_ms.append(open_rtt * 1e3)
        tally.next_ms.extend(page_ms)
        tally.first_answer.append(first_answer)
        tally.first_k.append(reached_k)
        tally.session_total.append(time.perf_counter() - started)
        return


class Turns:
    """The writer's progress through its ``WRITER_TURNS`` sessions."""

    def __init__(self):
        self.done = 0

    def running(self) -> bool:
        return self.done < WRITER_TURNS


async def reader_loop(conn: Connection, turns: Turns) -> None:
    while turns.running():
        await paged_session(conn)


async def writer_loop(conn: Connection, script: WriteScript, turns: Turns) -> None:
    while turns.running():
        if turns.done % 2 == 0:
            request = script.next_request()
            reply, rtt = await conn.call(request)
            if reply.get("ok"):
                conn.tally.write_ms.append(rtt * 1e3)
            else:
                conn.tally.fail(f"{request['op']}: {reply.get('error')}")
        await paged_session(conn)
        turns.done += 1


async def drain(conn: Connection) -> List[List[str]]:
    opened, _ = await conn.call({"op": "open", "engine": "fd", "use_index": True})
    if not opened.get("ok"):
        raise ConnectionError(f"final open failed: {opened.get('error')}")
    results: List[List[str]] = []
    while True:
        reply, _ = await conn.call({"op": "next", "session": opened["session"], "k": 100})
        if not reply.get("ok"):
            raise ConnectionError(f"final next failed: {reply.get('error')}")
        results.extend(reply["results"])
        if reply["exhausted"] or not reply["results"]:
            break
    await conn.call({"op": "close", "session": opened["session"]})
    return results


async def drive(port: int, script: WriteScript, tally: Tally) -> dict:
    """The closed loop until the writer's last turn, then the final check
    and a ``stats`` reply."""
    from repro.core.full_disjunction import full_disjunction

    requests_before = tally.requests
    reader = await Connection.open(port, tally)
    writer = await Connection.open(port, tally)
    turns = Turns()
    try:
        began = time.perf_counter()
        try:
            await asyncio.gather(reader_loop(reader, turns), writer_loop(writer, script, turns))
        except ConnectionError as error:
            tally.fail(f"connection dropped: {error}")
        ended = time.perf_counter()
        measured_requests = tally.requests
        served = label_sets(await drain(reader))
        expected = label_sets(
            [t.label for t in ts] for ts in full_disjunction(script.copy, use_index=True)
        )
        if served != expected:
            tally.fail(
                f"final fd has {len(served)} answers, the replayed copy {len(expected)}; "
                f"{len(served ^ expected)} differ",
                wrong_answer=True,
            )
        stats, _ = await reader.call({"op": "stats"})
    finally:
        await reader.close()
        await writer.close()
    return {
        "began": began,
        "ended": ended,
        "elapsed": ended - began,
        "requests": measured_requests - requests_before,
        "stats": stats,
    }


def end_to_end(tally: Tally, elapsed: float, requests: int, setup_times, rss) -> dict:
    if not tail_ok(tally.next_ms, 0.90):
        raise SetupError(f"too few next samples ({len(tally.next_ms)}) for a p90")
    return {
        "setup_s": median(setup_times),
        "first_answer_s": mean(tally.first_answer),
        "first_k_s": mean(tally.first_k),
        "total_s": mean(tally.session_total),
        "next_mean_ms": mean(tally.next_ms),
        "next_p90_ms": percentile(tally.next_ms, 0.90),
        "requests_per_s": requests / elapsed,
        "peak_rss_mb": rss,
    }


def notes_for(tally: Tally, elapsed: float) -> List[str]:
    def tail(samples, fraction):
        return f"{percentile(samples, fraction):.3f}" if tail_ok(samples, fraction) else "n/a"

    notes = [
        f"served-mixed: {len(tally.session_total)} sessions, {tally.answers} answers, "
        f"{len(tally.write_ms)} writes, {tally.stale_reopens} stale reopens in {elapsed:.1f} s",
        f"  open  p50 {median(tally.open_ms):.3f} ms  p99 {tail(tally.open_ms, 0.99)} ms "
        f"({len(tally.open_ms)} samples)",
        f"  next  p50 {median(tally.next_ms):.3f} ms  p99 {tail(tally.next_ms, 0.99)} ms "
        f"({len(tally.next_ms)} samples)",
        f"  write p50 {median(tally.write_ms):.3f} ms  p90 {tail(tally.write_ms, 0.90)} ms "
        f"({len(tally.write_ms)} samples)",
    ]
    return notes + tally.problems


def _script(seed: int, scale: str) -> WriteScript:
    sizes = SCALES[scale]["served"]
    return WriteScript(chain(seed, null_rate=0.1, **sizes), sizes["domain_size"])


def _load(server: ServerProcess, seed: int, scale: str, tally: Tally):
    return asyncio.run(drive(server.port, _script(seed, scale), tally))


def _client(port: int, seed: int, scale: str) -> dict:
    """Load a server from a fresh client process; its tally and outcome."""
    completed = subprocess.run(
        [sys.executable, os.path.abspath(__file__), str(port), str(seed), scale],
        capture_output=True, text=True, timeout=170, check=True,
        env=dict(os.environ, PYTHONPATH=SOURCE),
    )
    return json.loads(completed.stdout)


def run(seed: int, seconds: float, scale: str, traced: bool) -> dict:
    """Fresh server and client process pairs, one after another, until their
    load adds up to ``seconds`` (at least ``MIN_SERVERS``): one process can
    run ±10% apart from the next, so set-up and load samples are pooled.

    Set-up and each pair's load are scaled by references the server child
    timed itself (:class:`ServerProcess`, :meth:`ServerProcess.host_factor`).
    """
    if traced:
        return run_traced(seed, scale)
    tally = Tally()
    setup_times: List[float] = []
    peaks: List[float] = []
    load_factors: List[float] = []
    setup_factors: List[float] = []
    elapsed = raw_elapsed = 0.0
    requests = 0
    while len(setup_times) < MIN_SERVERS or raw_elapsed < seconds:
        server = ServerProcess(seed, scale)
        try:
            setup_times.append(server.setup_s)
            setup_factors.append(server.setup_factor)
            report = _client(server.port, seed, scale)
            peaks.append(server.peak_rss_mb())
        finally:
            server.stop()
        factor = server.host_factor(report["began"], report["ended"])
        load_factors.append(factor)
        tally.absorb(report["tally"], factor)
        elapsed += report["elapsed"] * factor
        raw_elapsed += report["elapsed"]
        requests += report["requests"]
    metrics = end_to_end(tally, elapsed, requests, setup_times, median(peaks))
    notes = notes_for(tally, elapsed)
    notes.insert(1, f"  {len(setup_times)} server and client pairs; times at the reference host "
                    f"speed; unscaled {requests / raw_elapsed:.1f} requests/s, median host "
                    f"factor {median(load_factors):.3f} (load), {median(setup_factors):.3f} (set-up)")
    return {
        "metrics": metrics,
        "attempted": tally.requests,
        "failed": tally.failed,
        "correct": not tally.wrong,
        "notes": notes,
    }


def run_traced(seed: int, scale: str) -> dict:
    """An untraced server for the overhead baseline, then a traced one."""
    baseline = Tally()
    server = ServerProcess(seed, scale)
    try:
        base = _load(server, seed, scale, baseline)
    finally:
        server.stop()
    base_factor = server.host_factor(base["began"], base["ended"])
    trace_out = os.path.join(OUT, f"served-trace-{os.getpid()}.json")
    tally = Tally()
    server = ServerProcess(seed, scale, trace_out=trace_out)
    try:
        outcome = _load(server, seed, scale, tally)
    finally:
        server.stop()
    with open(trace_out, encoding="utf-8") as handle:
        child = json.load(handle)
    os.remove(trace_out)
    base_rate = base["requests"] / (base["elapsed"] * base_factor)
    traced_rate = outcome["requests"] / (outcome["elapsed"] * server.host_factor(
        outcome["began"], outcome["ended"]))

    stats = outcome["stats"]
    cache = stats["cache"]
    lookups = cache["hits"] + cache["misses"]
    wal = stats["durability"]["wal"]
    writes = wal["records_appended"]
    layers = child["layers"]
    layers.update(
        {
            "cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
            "cache.misses": cache["misses"],
            "cache.invalidations": cache["invalidations"],
            "cache.revalidations": cache["revalidations"],
            "session.stale_reopens": tally.stale_reopens,
            "server.wire_ms": (tally.rtt_total - child["handle_inclusive_s"])
            / max(child["handle_count"], 1)
            * 1e3,
            "storage.wal_bytes_per_write": wal["offset"] / writes if writes else 0.0,
            "storage.fsyncs_per_write": wal["fsyncs"] / writes if writes else 0.0,
            "storage.snapshots": stats["durability"]["snapshots_written"],
            "trace.overhead": base_rate / traced_rate - 1.0,
        }
    )
    return {
        "layers": layers,
        "table": child["table"],
        "attempted": baseline.requests + tally.requests,
        "failed": baseline.failed + tally.failed,
        "correct": not (baseline.wrong or tally.wrong),
        "notes": notes_for(tally, outcome["elapsed"]),
    }


if __name__ == "__main__":
    port, seed, scale = sys.argv[1:4]
    tally = Tally()
    outcome = asyncio.run(drive(int(port), _script(int(seed), scale), tally))
    del outcome["stats"]
    print(json.dumps({"tally": vars(tally), **outcome}))
