"""The in-process workloads: ``star-full`` and ``chain-firstk``.

One query is one fresh ``full_disjunction_sets`` generator over a database
whose catalog is already built.  ``star-full`` drains it; ``chain-firstk``
stops after ``FIRST_K`` answers.  Set-up is the catalog build.

An untraced run spreads its measurement over ``WORKERS`` fresh worker
processes, one after another, and pools their samples, because two fresh
processes can run the same query up to ±10% apart.  Each worker scales its
times to the reference host speed (``common.HostSpeed``).  Peak memory
comes from one more process that builds the input and runs one query with
no reference timings beside it.  Run as a script, this module is one such
process::

    python3 perfbench/engine.py measure|memory WORKLOAD SEED SCALE SECONDS
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import subprocess
import sys
import time
from typing import List, Optional, Tuple

from common import OUT, SOURCE, HostSpeed, mean, median, peak_rss_mb, percentile
from inputs import FIRST_K, SCALES, balanced_star, chain, check_maximal_jcc, check_star, rows_by_label

#: Worker processes per run, each measuring set-up and then queries for its
#: share of the run.  A chain worker spends 1.3 s on set-up, so it gets fewer.
WORKERS = {"star-full": 6, "chain-firstk": 4}
#: Each process builds the input until it has spent this long (at least once).
SETUP_MIN_SECONDS = 0.25
SETUP_MAX = 400
#: Short queries after each measured query, because the few measured queries
#: alone give too few first-answer (and, on the star, first-k) samples:
#: ``(count, limit)`` pairs.  A star's first answer takes ~0.3 ms and varies
#: ±25% from one query to the next, so it gets many.
PROBES = {"star-full": [(3, FIRST_K), (20, 1)], "chain-firstk": [(5, 1)]}


class EngineWorkload:
    def __init__(self, name: str, seed: int, scale: str):
        self.name = name
        self.seed = seed
        self.scale = scale
        if name == "star-full":
            self.sizes = SCALES[scale]["star"]
            self.limit: Optional[int] = None
        else:
            self.sizes = SCALES[scale]["chain"]
            self.limit = FIRST_K

    def make(self):
        if self.limit is None:
            return balanced_star(self.seed, **self.sizes)
        return chain(self.seed, null_rate=0.05, **self.sizes)

    def check(self, database, answers: List[frozenset]) -> List[str]:
        rows = rows_by_label(database)
        if self.limit is None:
            return check_star(answers, rows=rows, **self.sizes)
        return check_maximal_jcc(answers, rows, self.limit)


def build(workload: EngineWorkload) -> Tuple[object, float]:
    """A fresh input and the seconds its catalog build took."""
    database = workload.make()
    started = time.perf_counter()
    database.catalog()
    return database, time.perf_counter() - started


def builds(workload: EngineWorkload):
    """Build repeatedly in this process; the last input and the median build time."""
    times: List[float] = []
    database = None
    began = time.perf_counter()
    while not times or (
        len(times) < SETUP_MAX and time.perf_counter() - began < SETUP_MIN_SECONDS
    ):
        database = None  # release the previous copy before building the next
        database, seconds = build(workload)
        times.append(seconds)
    return database, median(times)


def query(database, limit: Optional[int]) -> dict:
    """One query: answer label sets, per-answer timestamps, and its wall time."""
    from repro.core.full_disjunction import full_disjunction_sets
    from repro.core.incremental import FDStatistics

    answers: List[frozenset] = []
    stamps: List[float] = []
    generator = full_disjunction_sets(database, use_index=True, statistics=FDStatistics())
    started = time.perf_counter()
    for tuple_set in generator:
        stamps.append(time.perf_counter())
        answers.append(frozenset(t.label for t in tuple_set))
        if limit is not None and len(answers) == limit:
            break
    generator.close()
    ended = time.perf_counter()
    return {"answers": answers, "started": started, "stamps": stamps, "ended": ended}


def digest(answers: List[frozenset]) -> str:
    return hashlib.sha256(json.dumps([sorted(a) for a in answers]).encode()).hexdigest()


def worker(workload: EngineWorkload, seconds: float) -> dict:
    """One measuring process: set-up, then queries for ``seconds`` (at least one).

    Every time is scaled to the reference host speed (``common.HostSpeed``);
    ``raw_totals`` keeps the unscaled query times for the readable table.
    """
    host = HostSpeed()
    database, setup_s = builds(workload)
    setup_s *= host.scale()
    query(database, 1)  # lazy set-up (kernel, interning) finishes before timing
    host.mark()
    samples = {"first_answer": [], "first_k": [], "totals": [], "gaps": [], "raw_totals": []}
    queries = 0
    expected: Optional[List[frozenset]] = None
    problems: List[str] = []
    began = time.perf_counter()
    while not queries or time.perf_counter() - began < seconds:
        # Each round starts from a collected heap, so the cyclic collector's
        # full passes (10-20 ms over the catalog) land on the same queries
        # every round instead of on a varying share of the probes.
        gc.collect()
        host.mark()
        outcome = query(database, workload.limit)
        outcome["factor"] = host.scale()
        queries += 1
        answers = outcome["answers"]
        if expected is None:
            problems.extend(workload.check(database, answers))
            expected = answers
        elif answers != expected:
            problems.append(f"query {queries} returned a different answer list")
        probes = []
        for count, limit in PROBES[workload.name]:
            group = [query(database, limit) for _ in range(count)]
            factor = host.scale()
            for probe in group:
                probe["factor"] = factor
                queries += 1
                if probe["answers"] != expected[:limit]:
                    problems.append(f"probe query {queries} differs from the full query's prefix")
            probes.extend(group)
        for timed in [outcome] + probes:
            stamps, started, factor = timed["stamps"], timed["started"], timed["factor"]
            samples["first_answer"].append((stamps[0] - started) * factor)
            if len(stamps) >= min(FIRST_K, len(answers)):  # not a first-answer probe
                samples["first_k"].append((stamps[min(FIRST_K, len(stamps)) - 1] - started) * factor)
        stamps, started, factor = outcome["stamps"], outcome["started"], outcome["factor"]
        samples["totals"].append((outcome["ended"] - started) * factor)
        samples["raw_totals"].append(outcome["ended"] - started)
        samples["gaps"].append([(b - a) * factor for a, b in zip(stamps, stamps[1:])])
    return {
        "setup_s": setup_s,
        "host_factor": median(host.factors),
        "samples": samples,
        "answers_each": len(expected),
        "digest": digest(expected),
        "queries": queries,
        "problems": problems,
    }


def footprint(workload: EngineWorkload) -> dict:
    """Peak memory of set-up and one query, in a process that times no reference."""
    database, _ = build(workload)
    answers = query(database, workload.limit)["answers"]
    return {"digest": digest(answers), "peak_rss_mb": peak_rss_mb()}


def _spawn(mode: str, workload: EngineWorkload, seconds: float = 0.0):
    completed = subprocess.run(
        [sys.executable, os.path.abspath(__file__), mode, workload.name,
         str(workload.seed), workload.scale, str(seconds)],
        capture_output=True, text=True, timeout=170, check=True,
        env=dict(os.environ, PYTHONPATH=SOURCE),
    )
    return json.loads(completed.stdout)


def run(workload: EngineWorkload, seconds: float) -> dict:
    """The untraced run: end-to-end metrics pooled over the worker processes."""
    workers = WORKERS[workload.name]
    reports = [_spawn("measure", workload, seconds / workers) for _ in range(workers)]
    memory = _spawn("memory", workload)
    setup_times = [r["setup_s"] for r in reports]
    pooled = {key: [v for r in reports for v in r["samples"][key]] for key in reports[0]["samples"]}
    problems = [p for r in reports for p in r["problems"]]
    if len({r["digest"] for r in reports + [memory]}) != 1:
        problems.append("worker processes returned different answer lists")
    attempted = sum(r["queries"] for r in reports)
    # Every query yields the same answers in the same order, so the gap
    # before answer i is one quantity measured once per query: take its
    # median over the queries, then the mean and p90 over the positions.
    # Pooling all gaps instead let the p90 jump between two neighbouring
    # positions' times from run to run.
    gaps = [median(column) for column in zip(*pooled["gaps"])]
    metrics = {
        "setup_s": median(setup_times),
        "first_answer_s": median(pooled["first_answer"]),
        "first_k_s": median(pooled["first_k"]),
        "total_s": median(pooled["totals"]),
        "next_mean_ms": mean(gaps) * 1e3,
        "next_p90_ms": percentile(gaps, 0.90) * 1e3,
        "requests_per_s": reports[0]["answers_each"] / median(pooled["totals"]),
        "peak_rss_mb": memory["peak_rss_mb"],
    }
    notes = [
        f"{workload.name}: {attempted} queries in {workers} processes, "
        f"{reports[0]['answers_each']} answers each, {len(setup_times)} set-up samples, "
        f"{len(pooled['gaps'])} x {len(gaps)} answer gaps",
        f"  times at the reference host speed; unscaled median query "
        f"{median(pooled['raw_totals']):.4f} s, median host factor "
        f"{median([r['host_factor'] for r in reports]):.3f}",
    ] + problems
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": min(len(problems), attempted),
        "correct": not problems,
        "notes": notes,
    }


def run_traced(workload: EngineWorkload) -> dict:
    """The traced run: one untraced query for the overhead baseline, then one traced."""
    from spans import ENGINE_TARGETS, EngineProbe, Patches, SpanRecorder, layer_metrics, layer_table

    database, _ = build(workload)
    baseline = query(database, workload.limit)
    baseline_wall = baseline["ended"] - baseline["started"]
    database = None

    recorder = SpanRecorder()
    probe = EngineProbe(recorder)
    originals = {(m, p): Patches.current(m, p) for m, p, _ in ENGINE_TARGETS}
    probe.install(ENGINE_TARGETS)
    try:
        recorder.begin()
        database, _ = build(workload)
        traced = query(database, workload.limit)
        recorder.finish()
    finally:
        probe.restore()
    for (module_name, path), original in originals.items():
        if Patches.current(module_name, path) is not original:
            raise RuntimeError(f"{module_name}.{path} was not restored after tracing")
    problems = []
    if traced["answers"] != baseline["answers"]:
        problems.append("traced query returned a different answer list")
    problems.extend(workload.check(database, traced["answers"]))
    layers = layer_metrics(recorder, probe)
    layers["trace.overhead"] = (traced["ended"] - traced["started"]) / baseline_wall - 1.0
    recorder.write(os.path.join(OUT, f"spans-{workload.name}"))
    return {
        "layers": layers,
        "table": layer_table(recorder),
        "attempted": 2,
        "failed": min(len(problems), 2),
        "correct": not problems,
        "notes": problems,
    }


if __name__ == "__main__":
    mode, name, seed, scale, seconds = sys.argv[1:6]
    workload = EngineWorkload(name, int(seed), scale)
    report = worker(workload, float(seconds)) if mode == "measure" else footprint(workload)
    print(json.dumps(report))
