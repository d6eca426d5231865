"""End-to-end benchmark of the USI library, its async server and live ingest.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; see ``perfbench/README.md``.
"""
