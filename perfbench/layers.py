"""Per-layer metrics of a traced run, the same set on every workload.

Every traced run reports every per-layer metric of ``BENCHMARK.json``.
The build and query metrics are defined by role, so each workload fills
them from its own builds and queries: ``library_w1`` from its one exact
build and its ``query_batch`` calls, ``serve_zipf`` from its approximate
build and the server's own query profile (``GET /stats``), and
``live_ingest`` from the shard builds of its compactor and its queries
over memtables and shards.  The counts, ratios and sizes of the layers
that only one workload reaches (gateway, service, io, ingest) read 0 on
the others (:data:`NOT_REACHED`).  Times of those layers are written to
the trace file only: a time that reads 0 on two workloads of three
would say nothing there.
"""

from __future__ import annotations

#: What a workload reports for a layer it never reaches.
NOT_REACHED = {
    "suffix.key_builds": 0,
    "gateway.round_trips": 0,
    "gateway.coalesced": 0,
    "gateway.peak_queue_depth": 0,
    "gateway.rejected": 0,
    "gateway.wire_bytes_per_pattern": 0.0,
    "service.engine_hit_ratio": 0.0,
    "io.bundle_bytes": 0,
    "ingest.wal_bytes_per_byte": 0.0,
    "ingest.compactions": 0,
    "ingest.read_parts": 0,
    "ingest.replay_records": 0,
}

#: The layers whose self time every workload reports.
SELF_TIMED_LAYERS = ("strings", "kernel", "suffix", "hashing", "core")

MINER_SPANS = ("core.TopKOracle.", "core.ApproximateTopK.")


def wrap_build(tracer, built: list) -> None:
    """Spans around the build functions of every layer an index build
    reaches; every :class:`UsiIndex` built is appended to *built*."""
    from repro.core.approximate import ApproximateTopK
    from repro.core.topk_oracle import TopKOracle
    from repro.core.usi import UsiIndex
    from repro.hashing.karp_rabin import KarpRabinFingerprinter
    from repro.kernel.text_kernel import TextKernel
    from repro.strings.weighted import WeightedString
    from repro.suffix.sparse import SparseSuffixArray
    import repro.suffix.suffix_array as suffix_array

    tracer.wrap(WeightedString, "__init__", "strings.WeightedString.encode")
    tracer.wrap(TextKernel, "__init__", "kernel.TextKernel.build")
    tracer.wrap(suffix_array.SuffixArray, "__init__", "suffix.SuffixArray.build")
    tracer.wrap(suffix_array.SuffixArray, "lcp", "suffix.SuffixArray.lcp")
    tracer.wrap(SparseSuffixArray, "__init__", "suffix.SparseSuffixArray.build")
    tracer.wrap(KarpRabinFingerprinter, "__init__", "hashing.KarpRabinFingerprinter.build")
    tracer.wrap(KarpRabinFingerprinter, "with_bases", "hashing.KarpRabinFingerprinter.build")
    tracer.wrap(UsiIndex, "build", "core.UsiIndex.build", returned=built.append)
    tracer.wrap(TopKOracle, "__init__", "core.TopKOracle.build")
    tracer.wrap(TopKOracle, "tune_by_k", "core.TopKOracle.tune_by_k")
    tracer.wrap(TopKOracle, "top_k_arrays", "core.TopKOracle.top_k_arrays")
    tracer.wrap(ApproximateTopK, "mine", "core.ApproximateTopK.mine")


def wrap_query(tracer) -> None:
    """Spans around the in-process query path of a :class:`UsiIndex`."""
    from repro.core.usi import UsiIndex
    from repro.kernel.text_kernel import TextKernel
    import repro.suffix.suffix_array as suffix_array

    tracer.wrap(UsiIndex, "query_batch", "core.UsiIndex.query_batch")
    tracer.wrap(TextKernel, "batch_utilities", "kernel.TextKernel.batch_utilities")
    tracer.wrap(suffix_array.SuffixArray, "interval_batch", "suffix.SuffixArray.interval_batch")
    # _packed_keys calls the suffix.batch function through this module's name.
    tracer.wrap(suffix_array, "packed_window_keys", "suffix.packed_window_keys")


def build_metrics(tracer, built: list) -> dict:
    """Set-up figures of every index built in the run."""
    self_times = tracer.self_times()
    return {
        "kernel.build_s": tracer.total("kernel.TextKernel.build")
        + tracer.total("strings.WeightedString.encode"),
        # The exact miner's LCP array, or the approximate miner's sparse
        # suffix array with its sparse LCP.
        "suffix.lcp_s": tracer.total("suffix.SuffixArray.lcp")
        + tracer.total("suffix.SparseSuffixArray.build"),
        "core.mining_s": sum(seconds for name, seconds in self_times.items()
                             if name.startswith(MINER_SPANS)),
        "core.table_s": sum(index.report.table_seconds for index in built),
        "core.hash_entries": sum(index.report.hash_entries for index in built),
    }


def query_metrics(tracer, since: int = 0) -> dict:
    """Query-path figures of the in-process spans that ended after *since*."""
    self_times = tracer.self_times(since)
    return {
        "core.query_batch_self_s": sum(
            seconds for name, seconds in self_times.items()
            if name.startswith("core.") and name.endswith(".query_batch")
        ),
        "suffix.locate_s": tracer.total("suffix.SuffixArray.interval_batch", since),
        "kernel.gather_s": self_times.get("kernel.TextKernel.batch_utilities", 0.0),
        "suffix.key_builds": tracer.calls("suffix.packed_window_keys", since),
    }


def uncached_lengths(batch, cached) -> int:
    """Distinct lengths among the patterns of *batch* that ``cached``
    (the hash table H) does not hold: each is one locate length bucket."""
    return len({len(pattern) for pattern in batch if not cached(pattern)})


def layer_self_metrics(tracer) -> dict:
    seconds = tracer.layer_self_times()
    return {f"{layer}.self_s": seconds.get(layer, 0.0) for layer in SELF_TIMED_LAYERS}


def complete(metrics: dict) -> dict:
    """*metrics* with :data:`NOT_REACHED` filling the layers not reached."""
    return {**NOT_REACHED, **metrics}
