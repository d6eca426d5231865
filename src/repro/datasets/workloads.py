"""Named query workloads: the paper's W1/W2,p plus stress families.

W1: 90% of the query patterns are drawn from the top-(n/50) frequent
substrings of the dataset; the remaining 10% are drawn either from the
already-selected frequent patterns (creating repeats, which the
caching baselines like) or uniformly from substrings whose length is
random in a dataset-specific range.

W2,p: p% of the queries are drawn from the top-(n/100) frequent
substrings; the rest are constructed as in W1.

Beyond the paper's two, the registry carries the stress families the
scenario matrix regresses against:

* ``zipfian`` — rank-skewed draws from the frequent pool (real-traffic
  skew, the shape every cache is designed for);
* ``bursty`` — the same hot pattern repeated in geometric runs (what a
  pattern going viral looks like to the coalescer);
* ``adversarial`` — a^m b^m sweeps, period-1 repeats at many distinct
  lengths, and long text prefixes: worst cases for SA-IS induced
  sorting and the per-length-bucket batch path;
* ``cache_hostile`` — a stream of pairwise-distinct patterns that
  defeats every admission cache and the gateway coalescer by
  construction.

Every builder is deterministic in ``seed`` (same seed, byte-identical
patterns) and returns numpy ``int64`` code arrays, ready for
``UsiIndex.query`` / the baselines.  :data:`WORKLOADS` is the
string-keyed registry; :func:`build_workload` dispatches through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.topk_oracle import TopKOracle
from repro.errors import ParameterError
from repro.strings.weighted import WeightedString


def _frequent_pool(
    ws: WeightedString, oracle: TopKOracle, pool_size: int
) -> list[np.ndarray]:
    """Materialise the top-*pool_size* frequent substrings as patterns."""
    mined = oracle.top_k(max(1, pool_size))
    codes = ws.codes
    return [np.asarray(codes[m.position : m.position + m.length], dtype=np.int64)
            for m in mined]


def _random_substring(
    ws: WeightedString, rng: np.random.Generator, length_range: tuple[int, int]
) -> np.ndarray:
    lo, hi = length_range
    hi = min(hi, ws.length)
    lo = min(lo, hi)
    length = int(rng.integers(lo, hi + 1))
    start = int(rng.integers(0, ws.length - length + 1))
    return np.asarray(ws.codes[start : start + length], dtype=np.int64)


def _w1_tail(
    ws: WeightedString,
    rng: np.random.Generator,
    selected: list[np.ndarray],
    count: int,
    length_range: tuple[int, int],
) -> list[np.ndarray]:
    """The '10% remainder' rule: repeats of selected, or random substrings."""
    out: list[np.ndarray] = []
    for _ in range(count):
        if selected and rng.random() < 0.5:
            out.append(selected[int(rng.integers(0, len(selected)))])
        else:
            out.append(_random_substring(ws, rng, length_range))
    return out


def build_w1(
    ws: WeightedString,
    oracle: TopKOracle,
    num_queries: int,
    length_range: tuple[int, int] = (1, 5_000),
    frequent_fraction: float = 0.9,
    pool_divisor: int = 50,
    seed: int = 0,
) -> list[np.ndarray]:
    """The W1 workload: 90% frequent patterns, 10% mixed remainder."""
    if num_queries < 1:
        raise ParameterError("num_queries must be positive")
    rng = np.random.default_rng(seed)
    pool = _frequent_pool(ws, oracle, ws.length // pool_divisor)
    frequent_count = int(frequent_fraction * num_queries)
    picks = rng.integers(0, len(pool), size=frequent_count)
    selected = [pool[int(i)] for i in picks]
    queries = list(selected)
    queries.extend(
        _w1_tail(ws, rng, selected, num_queries - frequent_count, length_range)
    )
    rng.shuffle(queries)  # type: ignore[arg-type]
    return queries


def build_w2p(
    ws: WeightedString,
    oracle: TopKOracle,
    num_queries: int,
    p: int,
    length_range: tuple[int, int] = (1, 5_000),
    pool_divisor: int = 100,
    seed: int = 0,
) -> list[np.ndarray]:
    """The W2,p workload: p% from the top-(n/100) frequent substrings."""
    if not 0 <= p <= 100:
        raise ParameterError("p must be a percentage in [0, 100]")
    if num_queries < 1:
        raise ParameterError("num_queries must be positive")
    rng = np.random.default_rng(seed)
    pool = _frequent_pool(ws, oracle, ws.length // pool_divisor)
    frequent_count = int(p / 100 * num_queries)
    picks = rng.integers(0, len(pool), size=frequent_count)
    selected = [pool[int(i)] for i in picks]
    queries = list(selected)

    # Remaining queries follow the W1 construction.
    remaining = num_queries - frequent_count
    w1_frequent = int(0.9 * remaining)
    picks = rng.integers(0, len(pool), size=w1_frequent)
    w1_selected = [pool[int(i)] for i in picks]
    queries.extend(w1_selected)
    queries.extend(
        _w1_tail(ws, rng, w1_selected, remaining - w1_frequent, length_range)
    )
    rng.shuffle(queries)  # type: ignore[arg-type]
    return queries


# ----------------------------------------------------------------------
# Stress families
# ----------------------------------------------------------------------
def build_zipfian(
    ws: WeightedString,
    oracle: TopKOracle,
    num_queries: int,
    length_range: tuple[int, int] = (1, 5_000),
    seed: int = 0,
    zipf_a: float = 1.3,
) -> list[np.ndarray]:
    """Rank-skewed draws from the frequent pool (real-traffic skew).

    Pattern *i* of the top-(n/50) pool is drawn with probability
    proportional to ``rank**-zipf_a``, so a handful of hot patterns
    dominate — the distribution caches are built for.  A 5% tail of
    random substrings keeps the uncached path exercised.
    """
    if num_queries < 1:
        raise ParameterError("num_queries must be positive")
    rng = np.random.default_rng(seed)
    pool = _frequent_pool(ws, oracle, max(1, ws.length // 50))
    ranks = np.arange(1, len(pool) + 1, dtype=np.float64)
    probs = ranks ** (-zipf_a)
    probs /= probs.sum()
    queries: list[np.ndarray] = []
    for _ in range(num_queries):
        if rng.random() < 0.05:
            queries.append(_random_substring(ws, rng, length_range))
        else:
            queries.append(pool[int(rng.choice(len(pool), p=probs))])
    return queries


def build_bursty(
    ws: WeightedString,
    oracle: TopKOracle,
    num_queries: int,
    length_range: tuple[int, int] = (1, 5_000),
    seed: int = 0,
    mean_burst: int = 8,
) -> list[np.ndarray]:
    """Hot patterns arriving in geometric runs (a pattern going viral).

    Each burst picks one pattern from the frequent pool and repeats it
    back-to-back for a geometrically distributed run — the concurrency
    shape the request coalescer and the LRU admission path see when a
    pattern suddenly goes hot.
    """
    if num_queries < 1:
        raise ParameterError("num_queries must be positive")
    rng = np.random.default_rng(seed)
    pool = _frequent_pool(ws, oracle, max(1, ws.length // 50))
    queries: list[np.ndarray] = []
    while len(queries) < num_queries:
        pattern = pool[int(rng.integers(0, len(pool)))]
        run = 1 + int(rng.geometric(1.0 / mean_burst))
        queries.extend([pattern] * run)
    return queries[:num_queries]


def build_adversarial(
    ws: WeightedString,
    oracle: "TopKOracle | None",
    num_queries: int,
    length_range: tuple[int, int] = (1, 5_000),
    seed: int = 0,
) -> list[np.ndarray]:
    """Worst-case patterns for the suffix machinery, not for the cache.

    Round-robins three generators over the corpus's own letters:

    * **period-1 runs** ``c^L`` of the most common letter, one per
      distinct length — every pattern lands in its own length bucket,
      so the batch path degenerates to one searchsorted per pattern;
    * **a^m b^m sweeps** over the two most common letters — the
      classic induced-sorting stressor (maximal same-letter chains);
    * **text prefixes** at geometrically growing lengths — long
      patterns that outgrow the prefix-key width into the lockstep
      binary search inside their prefix interval.

    Patterns may or may not occur in the text; both sides matter
    (non-occurring worst cases still pay the full descent).
    """
    if num_queries < 1:
        raise ParameterError("num_queries must be positive")
    rng = np.random.default_rng(seed)
    lo, hi = length_range
    hi = max(1, min(hi, ws.length))
    counts = np.bincount(ws.codes)
    order = np.argsort(counts)[::-1]
    a = int(order[0])
    b = int(order[1]) if len(order) > 1 else a
    queries: list[np.ndarray] = []
    prefix_length = 1
    step = 0
    while len(queries) < num_queries:
        kind = step % 3
        step += 1
        if kind == 0:  # period-1 run, a fresh length every time
            length = 1 + (step // 3) % hi
            queries.append(np.full(length, a, dtype=np.int64))
        elif kind == 1:  # a^m b^m
            m = 1 + int(rng.integers(1, max(2, hi // 2 + 1)))
            m = min(m, max(1, hi // 2))
            queries.append(
                np.concatenate(
                    [np.full(m, a, dtype=np.int64), np.full(m, b, dtype=np.int64)]
                )
            )
        else:  # geometric text prefixes (long-pattern fallback path)
            queries.append(np.asarray(ws.codes[:prefix_length], dtype=np.int64))
            prefix_length = min(hi, prefix_length * 2)
            if prefix_length == hi:
                prefix_length = 1 + int(rng.integers(1, hi + 1)) // 2
    return queries[:num_queries]


def build_cache_hostile(
    ws: WeightedString,
    oracle: "TopKOracle | None",
    num_queries: int,
    length_range: tuple[int, int] = (1, 5_000),
    seed: int = 0,
) -> list[np.ndarray]:
    """A stream of pairwise-distinct patterns: zero cache value.

    Every pattern in the stream is unique (checked by content), so an
    LRU of any size scores zero hits after the compulsory misses, and
    the gateway coalescer never finds an identical in-flight request —
    each query pays a full worker round-trip.  Uniqueness is guaranteed
    even on degenerate corpora (an all-equal text still has ``n``
    distinct substrings ``c^1 .. c^n``); asking for more unique
    patterns than the text has distinct substrings raises.
    """
    if num_queries < 1:
        raise ParameterError("num_queries must be positive")
    rng = np.random.default_rng(seed)
    seen: set[bytes] = set()
    queries: list[np.ndarray] = []
    attempts = 0
    budget = 50 * num_queries
    while len(queries) < num_queries and attempts < budget:
        attempts += 1
        candidate = _random_substring(ws, rng, length_range)
        key = candidate.tobytes()
        if key in seen:
            continue
        seen.add(key)
        queries.append(candidate)
    # Degenerate corpora (few distinct substrings in the sampled length
    # range): fall back to prefixes of increasing length, which are
    # distinct patterns whenever their lengths are.
    length = 1
    while len(queries) < num_queries and length <= ws.length:
        candidate = np.asarray(ws.codes[:length], dtype=np.int64)
        length += 1
        key = candidate.tobytes()
        if key in seen:
            continue
        seen.add(key)
        queries.append(candidate)
    if len(queries) < num_queries:
        raise ParameterError(
            f"cannot draw {num_queries} unique patterns from a text with "
            f"n={ws.length}; lower num_queries or widen length_range"
        )
    return queries


# ----------------------------------------------------------------------
# The workload registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadSpec:
    """One named query workload: a seeded builder plus metadata."""

    name: str
    family: str
    description: str
    builder: Callable[..., "list[np.ndarray]"]
    needs_oracle: bool = True

    def build(
        self,
        ws: WeightedString,
        num_queries: int,
        length_range: tuple[int, int] = (1, 5_000),
        seed: int = 0,
        oracle: "TopKOracle | None" = None,
    ) -> list[np.ndarray]:
        if self.needs_oracle and oracle is None:
            from repro.suffix.suffix_array import SuffixArray

            oracle = TopKOracle(SuffixArray(ws.codes))
        return self.builder(
            ws, oracle, num_queries, length_range=length_range, seed=seed
        )


def _w2_50(ws, oracle, num_queries, length_range=(1, 5_000), seed=0):
    return build_w2p(
        ws, oracle, num_queries, p=50, length_range=length_range, seed=seed
    )


WORKLOADS: dict[str, WorkloadSpec] = {
    "w1": WorkloadSpec(
        name="w1", family="paper",
        description="the paper's W1: 90% top-(n/50) frequent, 10% mixed tail",
        builder=build_w1,
    ),
    "w2_50": WorkloadSpec(
        name="w2_50", family="paper",
        description="the paper's W2,p at p=50: half top-(n/100), half W1-style",
        builder=_w2_50,
    ),
    "zipfian": WorkloadSpec(
        name="zipfian", family="zipfian",
        description="rank-skewed frequent-pool draws (real-traffic skew)",
        builder=build_zipfian,
    ),
    "bursty": WorkloadSpec(
        name="bursty", family="bursty",
        description="hot patterns repeated in geometric runs (viral bursts)",
        builder=build_bursty,
    ),
    "adversarial": WorkloadSpec(
        name="adversarial", family="adversarial",
        description="a^m b^m sweeps, period-1 runs, long prefixes "
                    "(SA-IS and length-bucket worst cases)",
        builder=build_adversarial, needs_oracle=False,
    ),
    "cache_hostile": WorkloadSpec(
        name="cache_hostile", family="cache_hostile",
        description="pairwise-distinct patterns defeating LRU + coalescer",
        builder=build_cache_hostile, needs_oracle=False,
    ),
}


def available_workloads() -> list[str]:
    """Sorted registered workload names."""
    return sorted(WORKLOADS)


def workload_families() -> list[str]:
    """Sorted distinct workload families."""
    return sorted({spec.family for spec in WORKLOADS.values()})


def get_workload(name: str) -> WorkloadSpec:
    """The registered :class:`WorkloadSpec` under *name*."""
    spec = WORKLOADS.get(name)
    if spec is None:
        raise ParameterError(
            f"unknown workload {name!r}; registered: {available_workloads()}"
        )
    return spec


def build_workload(
    name: str,
    ws: WeightedString,
    num_queries: int,
    length_range: tuple[int, int] = (1, 5_000),
    seed: int = 0,
    oracle: "TopKOracle | None" = None,
) -> list[np.ndarray]:
    """Build the named workload over *ws* (dispatch through the registry)."""
    return get_workload(name).build(
        ws, num_queries, length_range=length_range, seed=seed, oracle=oracle
    )
