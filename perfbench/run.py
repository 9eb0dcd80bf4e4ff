"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload star-full --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` is a separate run that records spans around the program's
layers and prints the per-layer metrics.  The last line of standard output
is always the JSON result; earlier lines are a readable table, the
environment the run measured, and any answer-check failure.  ``--scale
smoke`` shrinks every input so a run takes seconds (the self-tests use it).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import common


def spec() -> dict:
    """``BENCHMARK.json``: the workloads, and the metrics with their units."""
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def parse(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    definitions = spec()
    args = parse(argv, [w["name"] for w in definitions["workloads"]])
    try:
        common.check_environment()
    except common.SetupError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    env = common.environment(args.seed)
    env.update(workload=args.workload, trace=args.trace, scale=args.scale)

    if args.workload == "served-mixed":
        import served

        outcome = served.run(args.seed, args.seconds, args.scale, traced=bool(args.trace))
    else:
        import engine

        workload = engine.EngineWorkload(args.workload, args.seed, args.scale)
        if args.trace:
            outcome = engine.run_traced(workload)
        else:
            outcome = engine.run(workload, args.seconds)

    if args.trace:
        layers = outcome["layers"]
        # A layer the workload never reaches reads 0.
        metrics = {m["name"]: (layers.get(m["name"], 0), m["unit"]) for m in definitions["per_layer"]}
        notes = list(outcome["notes"])
        wall = layers["trace.wall_s"]
        notes.append(f"layer self time over {wall:.3f} s traced wall:")
        for layer, seconds in outcome["table"]:
            notes.append(f"  {layer:<24} {seconds:10.4f} s  {100 * seconds / wall:5.1f}%")
    else:
        metrics = {
            m["name"]: (outcome["metrics"][m["name"]], m["unit"]) for m in definitions["end_to_end"]
        }
        notes = outcome["notes"]
    common.emit(
        outcome["correct"], outcome["attempted"], outcome["failed"], metrics, notes, env
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
