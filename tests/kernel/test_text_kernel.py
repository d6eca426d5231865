"""The TextKernel contract: build once, share everywhere, batch fast."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import TextKernel, WeightedString
from repro.core.naive import naive_global_utility
from repro.kernel import record_kernel_builds

PATTERNS = ["TACCCC", "A", "TA", "CCCC", "ATAC", "GGGG", "XYZ", "C", "ATACCCCGATAATACC"]


@pytest.fixture()
def ws() -> WeightedString:
    return WeightedString(
        "ATACCCCGATAATACCCCAG",
        [0.9, 1, 3, 2, 0.7, 1, 1, 0.6, 0.5, 0.5,
         0.5, 0.8, 1, 1, 1, 0.9, 1, 1, 0.8, 1],
    )


class TestBuildOnce:
    def test_usi_bsl1_fm_share_one_substrate_build(self, ws):
        """The acceptance check: one kernel, three backends, one encode."""
        with record_kernel_builds() as events:
            kernel = TextKernel.build(ws)
            usi = repro.build(ws, k=5, backend="usi", kernel=kernel)
            bsl1 = repro.build(ws, backend="bsl1", kernel=kernel)
            fm = repro.build(ws, k=5, backend="fm", kernel=kernel)
        builds = [event for event in events if event["event"] == "build"]
        assert len(builds) == 1, builds
        # The engines genuinely hold the kernel's structures.
        assert usi.inner.suffix_array is kernel.suffix
        assert usi.inner.kernel is kernel
        assert bsl1.inner._engine.kernel is kernel
        # ... and answer correctly through them.
        for index in (usi, bsl1, fm):
            for pattern in PATTERNS:
                assert index.query(pattern) == pytest.approx(
                    naive_global_utility(ws, pattern), abs=1e-9
                )

    def test_every_kernel_aware_backend_accepts_injection(self, ws):
        kernel = TextKernel.build(ws)
        with record_kernel_builds() as events:
            for backend in ("usi", "uat", "fm", "oracle", "bsl1", "bsl2",
                            "bsl3", "bsl4", "collection"):
                index = repro.build(ws, k=5, backend=backend, kernel=kernel)
                assert index.query("TACCCC") == pytest.approx(14.6)
        assert not [event for event in events if event["event"] == "build"]

    def test_mismatched_kernel_is_rejected(self, ws):
        kernel = TextKernel.build(WeightedString.uniform("ACGTACGT"))
        with pytest.raises(repro.ReproError, match="different weighted string"):
            repro.build(ws, k=5, backend="usi", kernel=kernel)

    def test_same_text_different_utilities_is_rejected(self, ws):
        same_text = WeightedString.uniform(ws.text())
        kernel = TextKernel.build(same_text)
        with pytest.raises(repro.ReproError, match="different weighted string"):
            repro.build(ws, k=5, backend="oracle", kernel=kernel)

    def test_kernel_unaware_backend_rejects_kernel(self, ws):
        kernel = TextKernel.build(ws)
        with pytest.raises(repro.ReproError, match="kernel"):
            repro.build(ws, k=5, backend="dynamic", kernel=kernel)


class TestBatchPath:
    def test_batch_utilities_match_naive(self, ws):
        kernel = TextKernel.build(ws)
        encoded = [ws.alphabet.try_encode_pattern(p) for p in PATTERNS]
        values = kernel.batch_utilities(encoded, "sum")
        expected = [naive_global_utility(ws, p) for p in PATTERNS]
        assert values == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("aggregator", ["sum", "min", "max", "avg"])
    def test_every_aggregator_matches_scalar(self, ws, aggregator):
        index = repro.build(ws, k=5, backend="oracle", aggregator=aggregator)
        batch = index.query_batch(PATTERNS)
        scalar = [index.query(p) for p in PATTERNS]
        assert batch == pytest.approx(scalar, abs=1e-9)

    def test_interval_batch_matches_scalar_interval(self, ws):
        kernel = TextKernel.build(ws)
        suffix = kernel.suffix
        for length in (1, 2, 4, 6, 16):
            patterns = [
                ws.codes[i : i + length].astype(np.int64)
                for i in range(0, ws.length - length + 1, 2)
            ]
            patterns.append(np.full(length, 3, dtype=np.int64))  # mostly absent
            lb, rb = suffix.interval_batch(np.vstack(patterns))
            for row, pattern in enumerate(patterns):
                assert (int(lb[row]), int(rb[row])) == suffix.interval(pattern)

    def test_lockstep_path_agrees_with_packed(self):
        # A huge alphabet packs only 2 letters per key, so 4-letter
        # patterns finish with the lockstep search.
        rng = np.random.default_rng(5)
        codes = rng.integers(0, 2**21, size=400, dtype=np.int64)
        ws = WeightedString(codes, rng.uniform(0.1, 2.0, size=400))
        kernel = TextKernel.build(ws)
        patterns = [codes[i : i + 4] for i in range(0, 60, 3)]
        lb, rb = kernel.suffix.interval_batch(np.vstack(patterns))
        for row, pattern in enumerate(patterns):
            assert (int(lb[row]), int(rb[row])) == kernel.suffix.interval(pattern)


class TestV3Container:
    def test_bundle_stores_substrate_once(self, ws, tmp_path):
        import zipfile

        kernel = TextKernel.build(ws)
        bundle = {
            "usi": repro.build(ws, k=5, backend="usi", kernel=kernel),
            "oracle": repro.build(ws, k=5, backend="oracle", kernel=kernel),
            "bsl1": repro.build(ws, backend="bsl1", kernel=kernel),
        }
        path = tmp_path / "bundle.npz"
        repro.save_bundle(bundle, path)
        members = zipfile.ZipFile(path).namelist()
        assert members.count("codes.npy") == 1
        assert members.count("sa.npy") == 1

        for mmap in (False, True):
            loaded = repro.load_bundle(path, mmap=mmap)
            assert set(loaded) == set(bundle)
            engines = {name: pair[0] for name, pair in loaded.items()}
            # One kernel is rebuilt and shared by every engine.
            kernels = {
                id(engines["usi"].kernel),
                id(engines["oracle"]._kernel),
                id(engines["bsl1"]._engine.kernel),
            }
            assert len(kernels) == 1
            for engine in engines.values():
                for pattern in PATTERNS:
                    assert engine.query(pattern) == pytest.approx(
                        naive_global_utility(ws, pattern), abs=1e-9
                    )

    def test_mmap_open_keeps_substrate_mapped(self, ws, tmp_path):
        path = tmp_path / "usi.npz"
        index = repro.build(ws, k=5, backend="usi")
        repro.save_index(index, path, container="v3")
        reopened = repro.open(path, mmap=True)
        sa = reopened.inner.suffix_array.sa
        assert isinstance(sa, np.memmap) or isinstance(
            getattr(sa, "base", None), np.memmap
        )
        assert reopened.query("TACCCC") == pytest.approx(14.6)

    def test_v3_is_pickle_free(self, ws, tmp_path):
        path = tmp_path / "usi.npz"
        repro.save_index(
            repro.build(ws, k=5, backend="usi"), path, container="v3"
        )
        from repro.io import load_any

        engine, backend = load_any(path, allow_pickle=False)
        assert backend == "usi"
        assert engine.query("TACCCC") == pytest.approx(14.6)

    def test_v3_single_index_serves(self, ws, tmp_path):
        from repro.service.registry import IndexRegistry

        path = tmp_path / "usi.npz"
        repro.save_index(
            repro.build(ws, k=5, backend="usi"), path, container="v3"
        )
        registry = IndexRegistry(mmap=True)
        registry.register_path("kernelized", path)
        rows = {row["name"]: row for row in registry.describe()}
        assert rows["kernelized"]["backend"] == "usi"
        assert registry.get("kernelized").query("TACCCC") == pytest.approx(14.6)

    def test_bundles_over_different_texts_are_rejected(self, ws, tmp_path):
        other = WeightedString.uniform("ACGTACGTACGT")
        with pytest.raises(repro.ReproError, match="different text"):
            repro.save_bundle(
                {
                    "a": repro.build(ws, k=5, backend="usi"),
                    "b": repro.build(other, k=5, backend="usi"),
                },
                tmp_path / "bad.npz",
            )

    def test_multi_index_bundle_refuses_single_open(self, ws, tmp_path):
        kernel = TextKernel.build(ws)
        path = tmp_path / "bundle.npz"
        repro.save_bundle(
            {
                "usi": repro.build(ws, k=5, backend="usi", kernel=kernel),
                "bsl1": repro.build(ws, backend="bsl1", kernel=kernel),
            },
            path,
        )
        with pytest.raises(repro.ReproError, match="load_bundle"):
            repro.open(path)


class TestDeprecationShim:
    def test_ws_constructed_engine_warns_but_works(self, ws):
        from repro.baselines.base import SaPswEngine

        with pytest.deprecated_call():
            engine = SaPswEngine(ws)
        codes = engine.encode("TACCCC")
        assert engine.compute(codes) == pytest.approx(14.6)
        # The shim built a private kernel internally.
        assert engine.kernel.matches(ws)

    def test_kernel_constructed_engine_does_not_warn(self, ws, recwarn):
        import warnings

        from repro.baselines.base import SaPswEngine

        kernel = TextKernel.build(ws)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            engine = SaPswEngine(kernel)
        assert engine.compute(engine.encode("TACCCC")) == pytest.approx(14.6)


class TestHarnessSharing:
    def test_compare_backends_builds_one_substrate(self, ws):
        from repro.eval.harness import compare_backends

        with record_kernel_builds() as events:
            runs = compare_backends(
                ws,
                ["TACCCC", "CCCC", "GGGG"],
                backends=["usi", "oracle", "bsl1", "bsl2"],
                trace_memory=False,
                k=5,
            )
        builds = [event for event in events if event["event"] == "build"]
        assert len(builds) == 1, builds
        assert all(run.shared_kernel for run in runs)
        for run in runs:
            assert run.answers == pytest.approx(runs[0].answers)
