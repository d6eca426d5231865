"""Seeded input generators for every workload.

Every text, utility, pattern and document the program receives is made
here from the run's ``--seed``; nothing comes from ``repro.datasets``,
so a change there cannot change what is measured.  Each purpose draws
from its own stream (:func:`rng_for`), so adding a draw to one input
leaves the others byte-identical.
"""

from __future__ import annotations

import zlib

import numpy as np

DNA_LETTERS = "ACGT"
#: Background base frequencies of a human chromosome (~41% GC).
DNA_PROBS = (0.295, 0.205, 0.205, 0.295)

#: Utilities on a dyadic grid (multiples of 1/16 in [0.6875, 1]).  It has
#: the shape of the paper's uniform {0.7, 0.75, ..., 1.0} grid for HUM
#: and XML, but every sum of these values is exact in float64, so the
#: program's answers can be compared with the reference bit for bit
#: whatever order either side adds occurrences in.
UTILITY_GRID = np.arange(11, 17, dtype=np.float64) / 16.0

XML_TAGS = ("article", "title", "author", "year", "ref", "sec", "item", "list", "cite")
XML_WORDS = ("data", "index", "string", "query", "utility", "graph", "model",
             "base", "note", "test", "top", "suffix", "array", "hash")


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """An independent generator for one purpose of one seed."""
    return np.random.default_rng([int(seed), zlib.crc32(stream.encode())])


def utilities(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.choice(UTILITY_GRID, size=n)


def decode(codes: np.ndarray, letters: str) -> str:
    return "".join(np.asarray(list(letters))[np.asarray(codes, dtype=np.int64)])


# ----------------------------------------------------------------------
# Texts
# ----------------------------------------------------------------------
def hum_like_dna(rng: np.random.Generator, n: int) -> np.ndarray:
    """DNA codes (0..3 = ACGT) shaped like a human chromosome.

    An i.i.d. background at ~41% GC, interspersed copies of a few
    Alu/L1-like repeat families with ~3% point mutations, and short
    tandem repeats (microsatellites) — the structures that give HUM
    its frequent long substrings.
    """
    codes = rng.choice(4, size=n, p=DNA_PROBS).astype(np.int8)
    families = [
        rng.choice(4, size=int(length), p=DNA_PROBS).astype(np.int8)
        for length in rng.integers(150, 400, size=6)
    ]
    pos = 0
    while True:
        pos += int(rng.integers(1_000, 5_000))
        family = families[int(rng.integers(0, len(families)))]
        if pos + len(family) > n:
            break
        copy = family.copy()
        mutated = rng.random(len(copy)) < 0.03
        copy[mutated] = rng.integers(0, 4, size=int(mutated.sum()))
        codes[pos : pos + len(copy)] = copy
        pos += len(copy)
    for _ in range(n // 2_000):
        unit = rng.integers(0, 4, size=int(rng.integers(1, 7)))
        run = np.tile(unit, int(rng.integers(6, 30))).astype(np.int8)
        start = int(rng.integers(0, n - len(run)))
        codes[start : start + len(run)] = run
    return codes


def xml_like_text(rng: np.random.Generator, n: int) -> str:
    """Tag-structured text shaped like the paper's XML set (sigma ~ 25)."""
    pieces: list[str] = []
    stack: list[str] = []
    total = 0
    while total < n:
        action = rng.random()
        if stack and (action < 0.3 or len(stack) > 5):
            piece = f"</{stack.pop()}>"
        elif action < 0.6:
            tag = XML_TAGS[int(rng.integers(0, len(XML_TAGS)))]
            stack.append(tag)
            piece = f"<{tag}>"
        else:
            piece = XML_WORDS[int(rng.integers(0, len(XML_WORDS)))] + " "
        pieces.append(piece)
        total += len(piece)
    return "".join(pieces)[:n]


# ----------------------------------------------------------------------
# library_w1: the paper's W1 mix
# ----------------------------------------------------------------------
def frequent_substrings(codes: np.ndarray, k: int, max_length: int = 12) -> list[np.ndarray]:
    """The *k* most frequent DNA substrings of length <= *max_length*.

    Counted exactly with 2-bit packed keys; ties go to the shorter,
    then the lexicographically smaller substring.  This stands in for
    the paper's top-(n/50) frequent pool without asking the program.
    """
    c = np.asarray(codes, dtype=np.int64)
    n = len(c)
    keys = np.zeros(n + 1, dtype=np.int64)
    found_counts, found_lengths, found_keys = [], [], []
    for m in range(1, max_length + 1):
        keys = keys[: n - m + 1] * 4 + c[m - 1 :]
        if 4**m <= 1 << 22:
            counts = np.bincount(keys, minlength=4**m)
            present = np.flatnonzero(counts)
            counts = counts[present]
        else:
            present, counts = np.unique(keys, return_counts=True)
        found_counts.append(counts)
        found_lengths.append(np.full(len(present), m, dtype=np.int64))
        found_keys.append(present)
    counts = np.concatenate(found_counts)
    lengths = np.concatenate(found_lengths)
    packed = np.concatenate(found_keys)
    top = np.lexsort((packed, lengths, -counts))[:k]
    pool = []
    for key, m in zip(packed[top].tolist(), lengths[top].tolist()):
        digits = [(key >> (2 * (m - 1 - j))) & 3 for j in range(m)]
        pool.append(np.asarray(digits, dtype=np.int64))
    return pool


def w1_batches(
    rng: np.random.Generator,
    codes: np.ndarray,
    pool: list[np.ndarray],
    batches: int,
    batch_size: int,
    tail_share: float = 0.1,
    tail_lengths: tuple[int, int] = (4, 64),
) -> list[list[np.ndarray]]:
    """Batches of the W1 mix: 90% uniform picks from the frequent pool,
    10% random text substrings over *tail_lengths*.  The tail's lengths
    are a stratified draw -- every length in the range once, the rest
    uniform -- so each batch spans the whole range and batches (and
    seeds) cost alike."""
    out = []
    tail = int(round(batch_size * tail_share))
    lo, hi = tail_lengths
    for _ in range(batches):
        picks = rng.integers(0, len(pool), size=batch_size - tail)
        batch = [pool[int(i)] for i in picks]
        lengths = np.arange(lo, hi + 1)[:tail]
        lengths = np.concatenate((lengths, rng.integers(lo, hi + 1, size=tail - len(lengths))))
        for length in lengths.tolist():
            start = int(rng.integers(0, len(codes) - length + 1))
            batch.append(np.asarray(codes[start : start + length], dtype=np.int64))
        order = rng.permutation(len(batch))
        out.append([batch[int(i)] for i in order])
    return out


# ----------------------------------------------------------------------
# serve_zipf: zipf-skewed vocabulary draws plus fresh substrings
# ----------------------------------------------------------------------
def vocabulary_candidates(rng: np.random.Generator, text: str, count: int,
                          lengths: tuple[int, int] = (3, 10)) -> list[str]:
    """Distinct substrings at random positions (biased to frequent ones)."""
    seen: dict[str, None] = {}
    for _ in range(count):
        length = int(rng.integers(lengths[0], lengths[1] + 1))
        start = int(rng.integers(0, len(text) - length + 1))
        seen.setdefault(text[start : start + length], None)
    return list(seen)


def fresh_substrings(rng: np.random.Generator, text: str, count: int,
                     lengths: tuple[int, int], exclude: "set[str]") -> list[str]:
    """*count* distinct substrings in a narrow length range, none in *exclude*."""
    out: dict[str, None] = {}
    while len(out) < count:
        length = int(rng.integers(lengths[0], lengths[1] + 1))
        start = int(rng.integers(0, len(text) - length + 1))
        piece = text[start : start + length]
        if piece not in exclude:
            out.setdefault(piece, None)
    return list(out)


def zipf_requests(
    rng: np.random.Generator,
    vocabulary: list[str],
    tail: list[str],
    requests: int,
    batch: int,
    tail_share: float,
    exponent: float,
    count_every: int,
) -> list[tuple[list[str], bool]]:
    """The request stream: each request is *batch* patterns, each a zipf
    draw over the frequency-ranked *vocabulary* or (with probability
    *tail_share*) the next unused *tail* substring; every
    *count_every*-th request also asks for counts."""
    ranks = np.arange(1, len(vocabulary) + 1, dtype=np.float64)
    probs = ranks**-exponent
    probs /= probs.sum()
    draws = rng.choice(len(vocabulary), size=requests * batch, p=probs)
    fresh = rng.random(requests * batch) < tail_share
    stream = []
    next_tail = 0
    for r in range(requests):
        patterns = []
        for j in range(r * batch, (r + 1) * batch):
            if fresh[j]:
                patterns.append(tail[next_tail % len(tail)])
                next_tail += 1
            else:
                patterns.append(vocabulary[int(draws[j])])
        stream.append((patterns, r % count_every == 0))
    return stream


# ----------------------------------------------------------------------
# live_ingest: DNA documents and a small query pool
# ----------------------------------------------------------------------
def dna_documents(rng: np.random.Generator, count: int, length: int) -> np.ndarray:
    """A ``(count, length)`` block of i.i.d. DNA documents (codes 0..3)."""
    return rng.choice(4, size=(count, length), p=DNA_PROBS).astype(np.int8)


def dna_patterns(rng: np.random.Generator, count: int, lengths: tuple[int, int]) -> list[np.ndarray]:
    """*count* distinct random DNA patterns (codes) with lengths in *lengths*."""
    found: dict[bytes, np.ndarray] = {}
    while len(found) < count:
        length = int(rng.integers(lengths[0], lengths[1] + 1))
        pattern = rng.choice(4, size=length, p=DNA_PROBS).astype(np.int64)
        found.setdefault(pattern.tobytes(), pattern)
    return list(found.values())
