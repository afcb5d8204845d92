"""Reuse and Recover mechanisms.

Reuse: content-defined chunking plus a digest-indexed chunk store, so
identical byte runs are stored once and the dedup ratio measures how
much of the logical data was reusable. Boundaries come from a rolling
hash of a small window, which is what makes them survive insertions —
a byte prepended to a file shifts every offset but leaves the content
under the window unchanged, so later boundaries stay put.

The hash of the k bytes starting at i is
    H_k[i] = XOR_{j<k} rotl(T[d[i+k-1-j]], j)
with T a seeded table of 256 random 64-bit words. Windows compose,
    H_{a+b}[i] = H_b[i+a] ^ rotl(H_a[i], b),
so a window of w bytes costs one table gather plus about 2*log2(w)
shift/XOR passes over the input.

Recover: anonymized structural histograms over the waste portion of a
snapshot — extensions, size buckets, age buckets — with no paths or
names in the output.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import ChunkCorruptionError, ObjectNotFoundError, WastekitError
from .model import RuleSet
from .scanner import Snapshot, classify_snapshot

DEFAULT_MIN_CHUNK = 2 * 1024
DEFAULT_TARGET_CHUNK = 8 * 1024
DEFAULT_MAX_CHUNK = 64 * 1024
DEFAULT_WINDOW = 48


@dataclass(frozen=True)
class ChunkingConfig:
    min_chunk: int = DEFAULT_MIN_CHUNK
    target_chunk: int = DEFAULT_TARGET_CHUNK
    max_chunk: int = DEFAULT_MAX_CHUNK
    window: int = DEFAULT_WINDOW

    def __post_init__(self):
        if not 0 < self.min_chunk <= self.target_chunk <= self.max_chunk:
            raise WastekitError("chunking config requires 0 < min_chunk <= target_chunk <= max_chunk")
        if not 1 <= self.window <= self.min_chunk:
            raise WastekitError("chunking config requires 1 <= window <= min_chunk")


# The seeded 256-entry table T behind every hash value, and so every cut point.
_rng = random.Random(0x5761737465)
_TABLE = np.array([_rng.getrandbits(64) for _ in range(256)], dtype=np.uint64)
del _rng

# Window starts hashed per block. The few uint64 arrays of one block
# (256 KiB each) stay in a core's L2 cache, and memory stays bounded
# however large the input is.
_BLOCK = 1 << 15


def _compose(ha: np.ndarray, hb: np.ndarray, a: int, b: int) -> np.ndarray:
    """H_{a+b} from H_a and H_b."""
    m = len(ha) - b
    head, tail, k = ha[:m], hb[a : a + m], b % 64
    if k == 0:
        return head ^ tail
    out = head << np.uint64(k)
    out |= head >> np.uint64(64 - k)
    out ^= tail
    return out


def _rolling_hashes(data: np.ndarray, window: int) -> np.ndarray:
    """H_window over data: index k covers bytes [k, k+window). Doubles
    the width from H_1 = T[data], adding one byte per set binary digit."""
    base = _TABLE[data]
    h, width = base, 1
    for bit in bin(window)[3:]:
        h = _compose(h, h, width, width)
        width *= 2
        if bit == "1":
            h = _compose(h, base, width, 1)
            width += 1
    return h


def chunk(data: bytes, config: ChunkingConfig = ChunkingConfig()) -> list[bytes]:
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
    w = config.window
    target = np.uint64(config.target_chunk)
    residue = np.uint64(config.target_chunk - 1)
    # Absolute positions i such that a cut falls between i and i+1,
    # hashed _BLOCK window starts at a time with a window-1 byte overlap.
    cuts = np.concatenate([
        np.nonzero(_rolling_hashes(arr[s : s + _BLOCK + w - 1], w) % target == residue)[0] + (s + w - 1)
        for s in range(0, n - w + 1, _BLOCK)
    ])
    chunks = []
    start = 0
    while n - start > config.min_chunk:
        idx = np.searchsorted(cuts, start + config.min_chunk - 1)
        cut = int(cuts[idx]) + 1 if idx < len(cuts) else n
        boundary = min(cut, start + config.max_chunk)
        if boundary >= n:
            break
        chunks.append(data[start:boundary])
        start = boundary
    chunks.append(data[start:])
    return chunks


@dataclass(frozen=True)
class IngestResult:
    object_id: str
    logical_bytes: int
    physical_new_bytes: int
    chunk_count: int
    new_chunk_count: int


@dataclass
class ChunkStore:
    """Digest-addressed chunk index with per-object recipes.

    Digest collisions are treated as impossible (256-bit hashes); a
    matching digest is trusted without a byte compare. The store only
    grows — there is no object deletion, because its job is measuring
    how much reuse a corpus contains, not running a backup lifecycle.
    """

    config: ChunkingConfig = field(default_factory=ChunkingConfig)
    index: dict = field(default_factory=dict)  # digest hex -> [bytes, refcount]
    objects: dict = field(default_factory=dict)  # object id -> list of digest hex

    def ingest(self, object_id: str, data: bytes) -> IngestResult:
        if object_id in self.objects:
            raise WastekitError(f"object id already ingested: {object_id!r}")
        recipe = []
        new_bytes = 0
        new_chunks = 0
        for piece in chunk(data, self.config):
            digest = hashlib.sha256(piece).hexdigest()
            slot = self.index.get(digest)
            if slot is None:
                self.index[digest] = [piece, 1]
                new_bytes += len(piece)
                new_chunks += 1
            else:
                slot[1] += 1
            recipe.append(digest)
        self.objects[object_id] = recipe
        return IngestResult(
            object_id=object_id,
            logical_bytes=len(data),
            physical_new_bytes=new_bytes,
            chunk_count=len(recipe),
            new_chunk_count=new_chunks,
        )

    def restore(self, object_id: str) -> bytes:
        recipe = self.objects.get(object_id)
        if recipe is None:
            raise ObjectNotFoundError(f"unknown object id: {object_id!r}")
        parts = []
        for digest in recipe:
            slot = self.index.get(digest)
            if slot is None:
                raise ChunkCorruptionError(f"object {object_id!r}: missing chunk {digest}")
            piece = slot[0]
            if hashlib.sha256(piece).hexdigest() != digest:
                raise ChunkCorruptionError(f"object {object_id!r}: chunk {digest} fails digest check")
            parts.append(piece)
        return b"".join(parts)

    def logical_bytes(self) -> int:
        return sum(sum(len(self.index[d][0]) for d in recipe) for recipe in self.objects.values())

    def physical_bytes(self) -> int:
        return sum(len(piece) for piece, _ in self.index.values())

    def dedup_ratio(self) -> float:
        physical = self.physical_bytes()
        if physical == 0:
            return 1.0
        return self.logical_bytes() / physical

    def check_consistency(self) -> list[str]:
        """Full rescan: recipe references must match refcounts exactly."""
        problems = []
        counted: dict[str, int] = {}
        for object_id, recipe in self.objects.items():
            for digest in recipe:
                if digest not in self.index:
                    problems.append(f"object {object_id!r} references missing chunk {digest}")
                counted[digest] = counted.get(digest, 0) + 1
        for digest, (piece, refcount) in self.index.items():
            expect = counted.get(digest, 0)
            if refcount != expect:
                problems.append(f"chunk {digest}: refcount {refcount} but {expect} references")
            if refcount < 1:
                problems.append(f"chunk {digest}: refcount below 1")
        return problems

    def stats(self) -> dict:
        logical = self.logical_bytes()
        physical = self.physical_bytes()
        return {
            "objects": len(self.objects),
            "chunks": len(self.index),
            "logical_bytes": logical,
            "physical_bytes": physical,
            "dedup_ratio": (logical / physical) if physical else 1.0,
        }


# -- Recover: anonymized waste summaries --------------------------------

AGE_BUCKET_EDGES_DAYS = (0, 1, 7, 30, 90, 365)
AGE_BUCKET_LABELS = ("0-1d", "1-7d", "7-30d", "30-90d", "90-365d", "365d+")


def size_bucket_label(size: int) -> str:
    """Power-of-two bucket, labeled by its inclusive upper bound."""
    if size <= 0:
        return "0"
    return str(1 << (size - 1).bit_length())


def age_bucket_label(age_secs: int) -> str:
    days = max(0, age_secs) // 86400
    for edge, label in zip(AGE_BUCKET_EDGES_DAYS[1:], AGE_BUCKET_LABELS):
        if days < edge:
            return label
    return AGE_BUCKET_LABELS[-1]


def extension_token(path: str) -> str:
    """Final extension of the basename, lowercased; '' when absent.
    This is the only fragment of the original name that may appear in
    a summary."""
    ext = os.path.splitext(os.path.basename(path))[1]
    return ext[1:].lower() if ext.startswith(".") else ""


@dataclass
class RecoverSummary:
    """Structural view of a snapshot's waste: what kinds, sizes and ages
    of files pile up, with all identifying detail stripped so the
    summary can be shared."""

    extension_histogram: dict
    size_histogram: dict
    age_histogram: dict
    waste_files: int
    waste_bytes: int

    def to_json_obj(self) -> dict:
        def hist(d: dict) -> dict:
            return {k: {"files": c, "bytes": b} for k, (c, b) in sorted(d.items())}

        return {
            "extension_histogram": hist(self.extension_histogram),
            "size_histogram": hist(self.size_histogram),
            "age_histogram": hist(self.age_histogram),
            "waste_files": self.waste_files,
            "waste_bytes": self.waste_bytes,
        }


def recover_summary(snapshot: Snapshot, rules: RuleSet, digest_provider=None) -> RecoverSummary:
    categories, _ = classify_snapshot(snapshot, rules, digest_provider)
    ext_hist: dict[str, list] = {}
    size_hist: dict[str, list] = {}
    age_hist: dict[str, list] = {}
    files = 0
    total = 0
    for record, category in zip(snapshot.records, categories):
        if not category.is_waste():
            continue
        files += 1
        total += record.size_bytes
        keys = (
            (ext_hist, extension_token(record.path)),
            (size_hist, size_bucket_label(record.size_bytes)),
            (age_hist, age_bucket_label(snapshot.taken_at - record.mtime)),
        )
        for hist, key in keys:
            slot = hist.setdefault(key, [0, 0])
            slot[0] += 1
            slot[1] += record.size_bytes
    return RecoverSummary(
        extension_histogram={k: tuple(v) for k, v in ext_hist.items()},
        size_histogram={k: tuple(v) for k, v in size_hist.items()},
        age_histogram={k: tuple(v) for k, v in age_hist.items()},
        waste_files=files,
        waste_bytes=total,
    )
