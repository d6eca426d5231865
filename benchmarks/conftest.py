"""Shared fixtures for the benchmark suite.

Each benchmark module regenerates one table or figure of the paper at
reproduction scale (n in the tens of thousands instead of billions; see
"Substitutions relative to the paper" in README.md).  Results are printed as
aligned tables and, when ``REPRO_WRITE_RESULTS=1`` is set, persisted
under ``results/`` so a full ``pytest benchmarks/ --benchmark-only``
run leaves a complete record.  Without the variable the committed
``results/*.txt`` files are left untouched (no diff churn from plain
test runs).
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.core.topk_oracle import TopKOracle
from repro.datasets.registry import DATASETS
from repro.suffix.suffix_array import SuffixArray

#: Scaled dataset lengths for benchmarking (kept below the library's
#: example scale so the full figure sweeps stay in CI-sized time).
BENCH_N = {"ADV": 8_000, "IOT": 8_000, "XML": 8_000, "HUM": 10_000, "ECOLI": 10_000}

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def save_report(name: str, text: str) -> None:
    """Print a result table; persist it only when explicitly asked.

    Writing is gated on ``REPRO_WRITE_RESULTS=1`` so ordinary test and
    benchmark runs do not perpetually rewrite the committed
    ``results/*.txt`` timing files.
    """
    if os.environ.get("REPRO_WRITE_RESULTS") == "1":
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print("\n" + text)


class DatasetBundle:
    """A generated dataset plus its shared index and oracle."""

    def __init__(self, name: str, n: int, seed: int = 0) -> None:
        self.name = name
        self.spec = DATASETS[name]
        self.ws = self.spec.make(n, seed=seed)
        self.index = SuffixArray(self.ws.codes)
        self.oracle = TopKOracle(self.index)
        self.default_k = self.spec.default_k(n)

    @property
    def n(self) -> int:
        return self.ws.length


@pytest.fixture(scope="session")
def bundles() -> dict[str, DatasetBundle]:
    """All five benchmark datasets with shared indexes (built once)."""
    return {name: DatasetBundle(name, n) for name, n in BENCH_N.items()}


@pytest.fixture(scope="session")
def xml_bundle(bundles) -> DatasetBundle:
    return bundles["XML"]


@pytest.fixture(scope="session")
def hum_bundle(bundles) -> DatasetBundle:
    return bundles["HUM"]
