"""Benchmark command: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Prints, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  Workloads and metrics are declared in the
repository's ``BENCHMARK.json``; see ``perfbench/README.md``.
"""

import time

STARTED = time.perf_counter()  # cold set-up is timed from the process start

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {
    "library_w1": "perfbench.wl_library",
    "serve_zipf": "perfbench.wl_serve",
    "live_ingest": "perfbench.wl_ingest",
}


def declared_units(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: the program's source (src/repro) is missing", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.common import RunContext

    units = declared_units(bool(args.trace))
    ctx = RunContext(args.workload, args.seed, args.seconds, bool(args.trace), STARTED)
    try:
        outcome = importlib.import_module(WORKLOADS[args.workload]).run(ctx)
    finally:
        ctx.close()
    for problem in outcome["problems"][:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    if set(outcome["metrics"]) != set(units):
        raise KeyError(f"{args.workload} reported {sorted(outcome['metrics'])}, "
                       f"BENCHMARK.json declares {sorted(units)}")
    metrics = {name: {"value": float(outcome["metrics"][name]), "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({
        "correct": not outcome["problems"],
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
