"""Input and reference generation, run as its own process.

``python -m perfbench.prepare --workload NAME --seed N --out DIR`` writes
the workload's inputs and reference answers into DIR.  It never imports
the program, so its answers are computed apart from it, and its memory
does not count toward the program's peak RSS.
"""

from __future__ import annotations

import argparse
import importlib
from pathlib import Path

#: The workloads whose inputs are made ahead of the run.
MODULES = {"library_w1": "perfbench.wl_library", "serve_zipf": "perfbench.wl_serve"}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    importlib.import_module(MODULES[args.workload]).prepare(args.seed, args.out)


if __name__ == "__main__":
    main()
