"""Self-tests of the benchmark itself.

Run from the repository root::

    python3 perfbench/selftest.py

(or ``python -m pytest perfbench/selftest.py``).  They check the span
arithmetic on synthetic trees, that a traced run leaves every patched name
restored, that every workload passes at smoke scale in seconds with the
metric names ``BENCHMARK.json`` declares, that a pinned environment variable
is refused, and that running the benchmark leaves the committed
``benchmarks/artifacts/BENCH_*.json`` byte-identical.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402

common.check_environment()

from spans import ENGINE_TARGETS, SERVER_TARGETS, EngineProbe, Patches, SpanRecorder  # noqa: E402

WORKLOADS = ("star-full", "chain-firstk", "served-mixed")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _at(clock: FakeClock, when: float) -> FakeClock:
    clock.now = when
    return clock


def test_self_time_on_a_nested_tree():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)
    recorder.begin()  # t = 0
    _at(clock, 1)
    a = recorder.enter("A")
    _at(clock, 2)
    b = recorder.enter("B")
    _at(clock, 3)
    c = recorder.enter("C")
    _at(clock, 4)
    recorder.exit(c)
    _at(clock, 6)
    recorder.exit(b)
    _at(clock, 7)
    d = recorder.enter("B")
    _at(clock, 8)
    recorder.exit(d)
    _at(clock, 11)
    recorder.exit(a)
    _at(clock, 12)
    recorder.finish()
    table = recorder.table()
    # A covers 1..11 (10 s) minus its children B (4 s) and B (1 s).
    assert table["A"]["self_s"] == 5.0
    # B: 2..6 minus C (1 s), plus the second B call (1 s).
    assert table["B"]["self_s"] == 4.0 and table["B"]["count"] == 2
    assert table["B"]["inclusive_s"] == 5.0
    assert table["C"]["self_s"] == 1.0
    assert recorder.wall == 12.0
    assert recorder.unattributed() == 2.0
    assert list(recorder.parents) == [-1, 0, 1, 0]


def test_self_time_with_interleaved_requests():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)
    recorder.begin()
    x = recorder.enter("X")  # t = 0
    _at(clock, 1)
    y = recorder.enter("Y")
    _at(clock, 2)
    recorder.exit(x)  # X ends while Y, opened later, is still open
    _at(clock, 4)
    recorder.exit(y)
    _at(clock, 5)
    z = recorder.enter("Z")
    _at(clock, 6)
    recorder.exit(z)
    recorder.finish()
    table = recorder.table()
    assert table["X"]["self_s"] == 1.0  # 0..1, then Y is the latest open span
    assert table["Y"]["self_s"] == 3.0
    assert table["Z"]["self_s"] == 1.0
    assert sum(v["self_s"] for v in table.values()) + recorder.unattributed() == recorder.wall


def test_host_speed_scales_by_the_surrounding_references():
    timings = iter([0.020, 0.030, 0.025])
    original = common.reference_seconds
    common.reference_seconds = lambda: next(timings)
    try:
        host = common.HostSpeed()  # times the first reference
        first = host.scale()
        second = host.scale()  # shares the middle reference with the first
    finally:
        common.reference_seconds = original
    assert abs(first - common.REFERENCE_SECONDS / 0.025) < 1e-12
    assert abs(second - common.REFERENCE_SECONDS / 0.0275) < 1e-12
    assert host.factors == [first, second]


def test_served_load_is_scaled_by_the_server_samples_inside_it():
    import served
    from server_child import CLOCK_ROUNDS

    server = served.ServerProcess.__new__(served.ServerProcess)
    server.log_path = "server.log"
    server.clock = [[0.5, 0.004], [1.5, 0.006], [2.5, 0.008], [9.0, 0.1]]
    quarter = common.REFERENCE_SECONDS * CLOCK_ROUNDS / common.REFERENCE_ROUNDS
    assert abs(server.host_factor(1.0, 3.0) - quarter / 0.007) < 1e-12
    # No sample inside the load: every sample counts.
    assert abs(server.host_factor(3.0, 4.0) - quarter / 0.0295) < 1e-12
    tally = served.Tally()
    tally.absorb({"next_ms": [1.0, 2.0], "requests": 3, "stale_reopens": 1}, 2.0)
    assert tally.next_ms == [2.0, 4.0] and tally.requests == 3 and tally.stale_reopens == 1


def _lookups():
    return {(m, p): Patches.current(m, p) for m, p, _ in ENGINE_TARGETS + SERVER_TARGETS}


def test_every_patched_name_is_restored():
    import engine

    before = _lookups()
    workload = engine.EngineWorkload("star-full", 1, "smoke")
    probe = EngineProbe(SpanRecorder())
    probe.install(ENGINE_TARGETS + SERVER_TARGETS)
    patched = _lookups()
    assert all(patched[key] is not before[key] for key in before)
    try:
        database, _ = engine.build(workload)
        engine.query(database, None)
    finally:
        probe.restore()
    after = _lookups()
    assert all(after[key] is before[key] for key in before)
    # Inherited methods are restored by removing the shadowing wrapper.
    from repro.core.store import ListIncompletePool

    assert "add" not in vars(ListIncompletePool)
    # And the engine's traced run checks the same itself.
    outcome = engine.run_traced(workload)
    assert outcome["correct"]
    assert _lookups() == before


def _run(workload: str, trace: int, env=None):
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        capture_output=True, text=True, timeout=170, env=env, cwd=common.ROOT,
    )
    return completed, time.perf_counter() - started


def _artifact_digests():
    paths = sorted(glob.glob(os.path.join(common.ROOT, "benchmarks", "artifacts", "BENCH_*.json")))
    return {path: hashlib.sha256(open(path, "rb").read()).hexdigest() for path in paths}


def test_smoke_scale_runs_every_workload_and_leaves_artifacts_alone():
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = {
        0: [m["name"] for m in spec["end_to_end"]],
        1: [m["name"] for m in spec["per_layer"]],
    }
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    digests = _artifact_digests()
    for workload in WORKLOADS:
        for trace in (0, 1):
            completed, seconds = _run(workload, trace)
            assert completed.returncode == 0, completed.stderr
            result = json.loads(completed.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, completed.stdout
            assert list(result["metrics"]) == declared[trace]
            assert seconds < 60, f"{workload} trace={trace} took {seconds:.1f} s"
            if trace == 0:
                assert all(m["value"] > 0 for m in result["metrics"].values()), result
            if workload == "star-full" and trace == 1:
                metrics = result["metrics"]
                assert metrics["exec.emitted"]["value"] == 2 * 2**4
                assert metrics["exec.produced_per_emitted"]["value"] == 4.0
    assert _artifact_digests() == digests


def test_pinned_variables_are_refused():
    env = dict(os.environ, REPRO_KERNEL="bigint")
    completed, _ = _run("star-full", 0, env=env)
    assert completed.returncode != 0
    assert "REPRO_KERNEL" in completed.stderr
    assert completed.stdout.strip() == ""


def main() -> int:
    tests = [value for name, value in sorted(globals().items()) if name.startswith("test_")]
    failures = 0
    for test in tests:
        started = time.perf_counter()
        try:
            test()
        except Exception as error:  # report every test, then fail
            failures += 1
            print(f"FAIL {test.__name__}: {error!r}")
        else:
            print(f"ok   {test.__name__} ({time.perf_counter() - started:.1f} s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
