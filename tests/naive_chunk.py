"""Reference for the content-defined chunker.

The rolling hash the long way: one rotated copy of the seeded table per
window offset and one gather pass over the input per copy, over the
whole input at once, with the cut search made twice per chunk. The
chunker in `wastekit.dedupe` (prefix XORs of pre-rotated words, hashed
block by block from streamed reads) is compared against `naive_chunk`
and these per-offset tables.
"""

import random

import numpy as np

from wastekit.dedupe import ChunkingConfig


def _rotl64(x: int, k: int) -> int:
    k %= 64
    return ((x << k) | (x >> (64 - k))) & 0xFFFFFFFFFFFFFFFF


def _byte_tables(window: int) -> np.ndarray:
    """Per-offset lookup tables for the rolling hash.

    The hash of the window ending at position i is
        XOR_{j=0..window-1} rotl(T[data[i-j]], j)
    with T a fixed random 64-bit table. Precomputing the rotated tables
    turns the whole computation into `window` vectorized XOR passes.
    """
    rng = random.Random(0x5761737465)
    base = [rng.getrandbits(64) for _ in range(256)]
    tables = np.empty((window, 256), dtype=np.uint64)
    for j in range(window):
        tables[j] = [_rotl64(v, j) for v in base]
    return tables


_TABLE_CACHE: dict = {}


def _rolling_hashes(data: np.ndarray, window: int) -> np.ndarray:
    """Hash values for every window-sized run; index k covers bytes
    [k, k+window)."""
    if window not in _TABLE_CACHE:
        _TABLE_CACHE[window] = _byte_tables(window)
    tables = _TABLE_CACHE[window]
    n = len(data)
    count = n - window + 1
    h = tables[0][data[window - 1 : n]]
    for j in range(1, window):
        h ^= tables[j][data[window - 1 - j : n - j]]
    assert len(h) == count
    return h


def naive_chunk(data: bytes, config: ChunkingConfig = ChunkingConfig()) -> list[bytes]:
    """Split data at content-determined boundaries.

    A boundary fires after position i when the rolling hash of the
    window ending at i hits a fixed residue mod target_chunk, giving
    chunks of about target_chunk bytes. Cut candidates are computed
    once over the whole input and are independent of previous cuts, so
    every non-final chunk lands in [min_chunk, max_chunk]: candidates
    closer than min_chunk are skipped, and max_chunk forces a cut.
    """
    n = len(data)
    if n == 0:
        return []
    if n <= config.min_chunk:
        return [data]
    arr = np.frombuffer(data, dtype=np.uint8)
    hashes = _rolling_hashes(arr, config.window)
    target = np.uint64(config.target_chunk)
    residue = np.uint64(config.target_chunk - 1)
    # Absolute positions i such that a cut falls between i and i+1.
    cuts = np.nonzero(hashes % target == residue)[0] + (config.window - 1)

    chunks = []
    start = 0
    while n - start > config.max_chunk or (n - start > config.min_chunk and _has_cut_before(cuts, start, config, n)):
        lo = start + config.min_chunk - 1
        hi = start + config.max_chunk - 1
        idx = np.searchsorted(cuts, lo)
        if idx < len(cuts) and cuts[idx] <= hi:
            boundary = int(cuts[idx]) + 1
        else:
            boundary = start + config.max_chunk
        chunks.append(data[start:boundary])
        start = boundary
    if start < n:
        chunks.append(data[start:])
    return chunks


def _has_cut_before(cuts: np.ndarray, start: int, config: ChunkingConfig, n: int) -> bool:
    """True when a content cut exists that would leave a non-final
    remainder, i.e. strictly inside (start+min, n)."""
    lo = start + config.min_chunk - 1
    idx = np.searchsorted(cuts, lo)
    return idx < len(cuts) and cuts[idx] + 1 < n and cuts[idx] <= start + config.max_chunk - 1
