"""The vectorised batch locate (``SuffixArray.interval_batch``).

Every interval the batch kernel returns must equal the scalar
``SuffixArray.interval`` of the same pattern: on both sides of the
prefix-key width ``W`` (searchsorted alone up to ``W`` letters, lockstep
search inside the prefix interval beyond it), for alphabets from one
letter to 2^21, and on the inputs where a packed key could go wrong —
repetitive texts, suffixes shorter than ``W`` at the end of the text,
letters outside the text's alphabet, patterns longer than the text and
int32 arrays adopted through ``from_parts``.  The prefix-key array is a
derived accelerator: it never reaches a pickle.
"""

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.io import _save_v2
from repro.strings.weighted import WeightedString
from repro.suffix.batch import pack_limit
from repro.suffix.suffix_array import SuffixArray


def _text(kind: str, sigma: int, n: int, rng) -> np.ndarray:
    if kind == "unary":
        return np.full(n, int(rng.integers(0, sigma)), dtype=np.int64)
    if kind == "period2":
        a, b = rng.integers(0, sigma, size=2)
        return np.where(np.arange(n) % 2 == 0, a, b).astype(np.int64)
    return rng.integers(0, sigma, size=n, dtype=np.int64)


def _patterns(codes: np.ndarray, sigma: int, m: int, rng) -> list[np.ndarray]:
    """Rows of length *m*: present, absent, end-of-text and foreign."""
    n = len(codes)
    max_code = int(codes.max())
    rows = [rng.integers(0, sigma, size=m, dtype=np.int64)]
    if m <= n:
        start = int(rng.integers(0, n - m + 1))
        rows.append(codes[start : start + m].copy())
        rows.append(codes[n - m :].copy())  # the last suffix of length m
        mutated = codes[start : start + m].copy()
        mutated[int(rng.integers(0, m))] = int(rng.integers(0, sigma))
        rows.append(mutated)
    if 1 < m <= n + 1:
        # Runs one letter past the end: compares against a suffix
        # shorter than the pattern (and shorter than W when m <= W).
        rows.append(np.append(codes[n - m + 1 :], codes[0]))
    for foreign in (-1, max_code + 1):
        row = rng.integers(0, max_code + 1, size=m, dtype=np.int64)
        row[int(rng.integers(0, m))] = foreign
        rows.append(row)
    return rows


class TestIntervalBatchMatchesScalar:
    @given(
        sigma=st.sampled_from([1, 2, 4, 25, 2**21]),
        kind=st.sampled_from(["random", "unary", "period2"]),
        n=st.integers(1, 90),
        int32=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_length_around_the_width(self, sigma, kind, n, int32, seed):
        rng = np.random.default_rng(seed)
        codes = _text(kind, sigma, n, rng)
        reference = SuffixArray(codes, with_lcp=False)
        if int32:
            suffix = SuffixArray.from_parts(
                codes.astype(np.int32), reference.sa.astype(np.int32)
            )
        else:
            suffix = SuffixArray(codes, with_lcp=False)
        width = pack_limit(int(codes.max()) + 2)
        for m in range(1, width + 9):
            rows = _patterns(codes, sigma, m, rng)
            lb, rb = suffix.interval_batch(np.vstack(rows))
            for row, pattern in enumerate(rows):
                assert (int(lb[row]), int(rb[row])) == reference.interval(pattern), (
                    f"m={m} (W={width}) pattern={pattern.tolist()}"
                )

    def test_long_repeats_need_the_lockstep_tail(self):
        # DNA packs 26 letters; in a tandem repeat every 26-letter
        # prefix interval is wide, so the lockstep search decides.
        unit = np.array([0, 1, 2, 3, 3, 2, 1], dtype=np.int64)
        codes = np.concatenate([np.tile(unit, 40), [0, 0, 1]])
        suffix = SuffixArray(codes, with_lcp=False)
        assert pack_limit(int(codes.max()) + 2) == 26
        for m in (26, 27, 40, 100, len(codes)):
            rows = [codes[s : s + m] for s in range(0, len(codes) - m + 1, 5)]
            lb, rb = suffix.interval_batch(np.vstack(rows))
            for row, pattern in enumerate(rows):
                assert (int(lb[row]), int(rb[row])) == suffix.interval(pattern)


class TestPrefixKeysStayOutOfState:
    def _suffix(self):
        codes = np.random.default_rng(2).integers(0, 4, size=500, dtype=np.int64)
        return codes, SuffixArray(codes, with_lcp=False)

    def test_suffix_array_pickle_unchanged_by_batches(self):
        codes, suffix = self._suffix()
        before = pickle.dumps(suffix)
        suffix.interval_batch(np.vstack([codes[i : i + 5] for i in range(0, 50, 5)]))
        suffix.interval_batch(np.vstack([codes[i : i + 40] for i in range(0, 50, 5)]))
        assert pickle.dumps(suffix) == before
        clone = pickle.loads(before)
        assert clone._prefix_keys is None
        matrix = np.vstack([codes[i : i + 7] for i in range(0, 90, 3)])
        for got, want in zip(clone.interval_batch(matrix), suffix.interval_batch(matrix)):
            assert np.array_equal(got, want)

    def test_from_parts_and_legacy_state_start_without_keys(self):
        codes, suffix = self._suffix()
        suffix.interval_batch(codes[:6][None, :])
        rewrapped = SuffixArray.from_parts(codes, suffix.sa)
        assert rewrapped._prefix_keys is None
        # A pickle from before the prefix-key array carries only the
        # text, the suffix array and the LCP slot.
        legacy = SuffixArray.__new__(SuffixArray)
        legacy.__dict__.update(_codes=codes, _sa=suffix.sa, _lcp=None)
        restored = pickle.loads(pickle.dumps(legacy))
        lb, rb = restored.interval_batch(codes[10:16][None, :])
        assert (int(lb[0]), int(rb[0])) == suffix.interval(codes[10:16])

    def test_usi_v2_payload_unchanged_by_query_batch(self, tmp_path):
        rng = np.random.default_rng(3)
        codes = rng.integers(0, 4, size=3_000)
        ws = WeightedString(codes, rng.uniform(0.5, 1.5, size=3_000))
        engine = repro.build(ws, k=20, backend="usi").inner

        def payload() -> bytes:
            path = tmp_path / "index.npz"
            _save_v2(engine, "usi", path)
            with np.load(path) as archive:
                return archive["payload"].tobytes()

        before = payload()
        counters = engine.hash_hits, engine.hash_misses
        patterns = [codes[s : s + m] for s, m in zip(
            rng.integers(0, 2_900, size=60).tolist(), rng.integers(1, 40, size=60).tolist()
        )]
        engine.query_batch(patterns)
        assert engine.suffix_array._prefix_keys is not None
        # query_batch moves only the hit/miss counters of the state.
        engine.hash_hits, engine.hash_misses = counters
        assert payload() == before
