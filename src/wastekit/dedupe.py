"""Reuse and Recover mechanisms.

Reuse: content-defined chunking plus a digest index, so identical byte
runs count once and the dedup ratio measures how much of the logical
data was reusable. Boundaries come from a rolling hash of a small
window, which is what makes them survive insertions — a byte prepended
to a file shifts every offset but leaves the content under the window
unchanged, so later boundaries stay put.

The hash of the w bytes starting at i is
    H_w[i] = XOR_{j<w} rotl(T[d[i+w-1-j]], j)
with T a seeded table of 256 random 64-bit words. With
U[p] = rotr(T[d[p]], p mod 64) the same value is
    H_w[i] = rotl(U[i] ^ ... ^ U[i+w-1], (i+w-1) mod 64),
so a block of input costs one gather from a 64x256 table of
pre-rotated words, about log2(w) plain XOR passes that double the
window, and a residue test. A cut falls after the window when
H_w mod target_chunk == target_chunk - 1. For a power-of-two target
that is (H_w & M) == M with M = target_chunk - 1, tested without
rotating H_w: the XOR is compared against M rotated back by the
window's lane, from a 64-entry table. Other targets rotate and take
the remainder.

Files are chunked from streamed reads: the window carries over a read
edge in a window-1 byte tail, the cut state carries over too, and each
chunk is hashed from the read buffer in place. `ChunkIndex` keeps only
digests, sizes and refcounts; `ChunkStore` adds the chunk bytes, for
`restore`.

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

_LANE = np.arange(64)
# Row r holds T rotated right by r; U[p] is entry 256*(p mod 64) + d[p].
_ROTATED = np.empty(64 * 256, dtype=np.uint64)
for _r in range(64):
    _ROTATED[256 * _r : 256 * (_r + 1)] = _TABLE >> np.uint64(_r) | _TABLE << np.uint64((64 - _r) % 64)
del _r
_ROW_START = (_LANE * 256).astype(np.uint16)
_ALL_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)

# Window starts hashed per block. The few uint64 arrays of one block
# (256 KiB each) stay in a core's L2 cache.
_BLOCK = 1 << 15
# Blocks per read when a file is streamed.
_READ_BLOCKS = 32


def _rotr(x: int, k: int) -> int:
    k %= 64
    return (x >> k | x << (64 - k)) & 0xFFFF_FFFF_FFFF_FFFF


def _lanewise(op, a: np.ndarray, row: np.ndarray, out: np.ndarray) -> np.ndarray:
    """op(a, row) into out, with row (64 wide) repeated along a."""
    q = len(a) & ~63
    op(a[:q].reshape(-1, 64), row, out=out[:q].reshape(-1, 64))
    op(a[q:], row[: len(a) - q], out=out[q:])
    return out


class _CutFinder:
    """Hashes and cut candidates of one window and target, block by
    block. The scratch arrays are reused from block to block: fresh ones
    would be page-faulted in again for every block."""

    def __init__(self, window: int, target: int):
        self.window = window
        self.steps = bin(window)[3:]  # after the leading 1: double, then add one byte on a 1
        self.pow2 = target & (target - 1) == 0
        self.modulus, self.residue = np.uint64(target), np.uint64(target - 1)
        # rotl(V, k) & M == M  iff  V | ~rotr(M, k) is all ones; row k holds ~rotr(M, k).
        self.masks = ~np.array([_rotr(target - 1, k) for k in range(64)], dtype=np.uint64)
        self._scratch(0)

    def _scratch(self, size: int) -> None:
        """Scratch arrays for blocks of up to `size` bytes."""
        self.idx16 = np.empty(size, dtype=np.uint16)
        self.idx = np.empty(size, dtype=np.intp)
        self.u = np.empty(size, dtype=np.uint64)
        self.xor = (np.empty(size, dtype=np.uint64), np.empty(size, dtype=np.uint64))
        self.hit = np.empty(size, dtype=bool)

    def _window_xor(self, block: np.ndarray, pos: int) -> tuple[np.ndarray, np.ndarray]:
        """V[i] = U[i] ^ ... ^ U[i+window-1] for each window inside
        `block`, the bytes from offset `pos` on; also the scratch array V
        does not occupy."""
        m = len(block)
        if m > len(self.u):
            self._scratch(m)
        idx16, idx, u = self.idx16[:m], self.idx[:m], self.u[:m]
        _lanewise(np.add, block, _ROW_START[(pos + _LANE) % 64], idx16)
        np.copyto(idx, idx16)
        _ROTATED.take(idx, out=u)
        v, width, side = u, 1, 0
        for bit in self.steps:
            out = self.xor[side][: len(v) - width]
            np.bitwise_xor(v[: len(out)], v[width:], out=out)
            v, width, side = out, 2 * width, 1 - side
            if bit == "1":
                out = self.xor[side][: len(v) - 1]
                np.bitwise_xor(v[:-1], u[width:], out=out)
                v, width, side = out, width + 1, 1 - side
        return v, self.xor[side]

    def hashes(self, block: np.ndarray, pos: int) -> np.ndarray:
        """H_window[i] for each window inside `block`, the bytes from
        offset `pos` on: V rotated left by each window's end mod 64."""
        v, spare = self._window_xor(block, pos)
        lanes = (pos + self.window - 1 + _LANE) % 64
        h = _lanewise(np.left_shift, v, lanes.astype(np.uint64), spare[: len(v)])
        h |= _lanewise(np.right_shift, v, ((64 - lanes) % 64).astype(np.uint64), v)
        return h

    def candidates(self, block: np.ndarray, pos: int) -> np.ndarray:
        """Absolute positions c, over the windows inside `block`, whose
        window ending at c leaves a cut: H mod target == target - 1."""
        first_end = pos + self.window - 1
        if self.pow2:
            v, _ = self._window_xor(block, pos)
            row = self.masks[(first_end + _LANE) % 64]
            hit = np.equal(_lanewise(np.bitwise_or, v, row, v), _ALL_ONES, out=self.hit[: len(v)])
        else:
            h = self.hashes(block, pos)
            hit = np.equal(np.remainder(h, self.modulus, out=h), self.residue, out=self.hit[: len(h)])
        return np.flatnonzero(hit) + first_end


def cut_points(reads, config: ChunkingConfig = ChunkingConfig()):
    """Content-defined cuts over a stream of reads (bytes-like objects).

    Yields each read as a memoryview, with the offsets in it at which a
    chunk ends, in order. The last chunk ends at the end of the input
    and is not yielded. A read is hashed in blocks of _BLOCK window
    starts, windows over a read edge from a window-1 byte tail, and a
    cut is taken as soon as no later byte can change it.

    A cut falls after position i when the window ending at i leaves the
    cut residue. Candidates do not depend on previous cuts, so every
    non-final chunk lands in [min_chunk, max_chunk]: candidates closer
    than min_chunk are skipped, and max_chunk forces a cut.
    """
    w, lo, hi = config.window, config.min_chunk, config.max_chunk
    finder = _CutFinder(w, config.target_chunk)
    tail = b""  # the last window-1 bytes before the current read
    pending = np.empty(0, dtype=np.intp)  # candidates not yet passed over
    start = base = 0  # where the open chunk starts; where the current read starts
    for read in reads:
        view = memoryview(read).cast("B")
        n = len(view)
        data = np.frombuffer(view, dtype=np.uint8)
        blocks = [(data[s : s + _BLOCK + w - 1], base + s) for s in range(0, n - w + 1, _BLOCK)]
        if tail:
            blocks.insert(0, (np.frombuffer(tail + view[: w - 1], dtype=np.uint8), base - len(tail)))
        cuts = []
        for block, pos in blocks:
            known = pos + len(block)  # every candidate before this is in `found`
            if len(block) < w or known <= start + lo - 1:
                continue  # no window here ends where a cut can be taken
            found = np.concatenate((pending, finder.candidates(block, pos)))
            while True:
                i = int(np.searchsorted(found, start + lo - 1))
                end = start + hi
                if i < len(found) and found[i] < end:
                    end = int(found[i]) + 1
                if end >= known:
                    break
                cuts.append(end - base)
                start = end
            pending = found[i:]
        if w > 1:
            tail = (tail + view[max(0, n - w + 1) :])[-(w - 1) :]
        base += n
        yield view, cuts


def chunk(data: bytes, config: ChunkingConfig = ChunkingConfig()) -> list[bytes]:
    """Split data at content-determined boundaries (see `cut_points`)."""
    pieces = []
    start = 0
    for _, cuts in cut_points((data,), config):
        for end in cuts:
            pieces.append(data[start:end])
            start = end
    if start < len(data):
        pieces.append(data[start:])
    return pieces


def _reads(fh):
    """Read a binary file to its end in reads of one block, then of twice
    as many each time up to _READ_BLOCKS blocks, so a small file gets a
    small buffer. Each view is valid until the next is yielded."""
    buf = bytearray(_BLOCK)
    while got := fh.readinto(buf):
        yield memoryview(buf)[:got]
        if got == len(buf) < _READ_BLOCKS * _BLOCK:
            buf = bytearray(min(2 * len(buf), _READ_BLOCKS * _BLOCK))


def _chunk_digests(reads, config: ChunkingConfig):
    """(sha256 hex, size) of each chunk, hashed from the reads in place."""
    h, size = hashlib.sha256(), 0
    for view, cuts in cut_points(reads, config):
        pos = 0
        for end in cuts:
            h.update(view[pos:end])
            yield h.hexdigest(), size + end - pos
            h, size, pos = hashlib.sha256(), 0, end
        h.update(view[pos:])
        size += len(view) - pos
    if size:
        yield h.hexdigest(), size


@dataclass(frozen=True)
class IngestResult:
    object_id: str
    logical_bytes: int
    physical_new_bytes: int
    chunk_count: int
    new_chunk_count: int


@dataclass
class ChunkIndex:
    """Digest-addressed chunk index with per-object recipes.

    Holds each distinct chunk's size and refcount, not its bytes, so
    memory grows with the number of chunks, never with their sizes.
    Digest collisions are treated as impossible (256-bit hashes); a
    matching digest is trusted without a byte compare. The index only
    grows — there is no object deletion, because its job is measuring
    how much reuse a corpus contains, not running a backup lifecycle.
    """

    config: ChunkingConfig = field(default_factory=ChunkingConfig)
    index: dict = field(default_factory=dict)  # digest hex -> [size, refcount]
    objects: dict = field(default_factory=dict)  # object id -> list of digest hex

    def ingest(self, object_id: str, data) -> IngestResult:
        """Index a bytes-like object."""
        return self._ingest(object_id, (data,))

    def ingest_file(self, object_id: str, fh) -> IngestResult:
        """Index a binary file from streamed reads, holding one read at a
        time."""
        return self._ingest(object_id, _reads(fh))

    def _ingest(self, object_id: str, reads) -> IngestResult:
        if object_id in self.objects:
            raise WastekitError(f"object id already ingested: {object_id!r}")
        # All chunks are hashed before the index changes, so a failed read
        # leaves it as it was.
        chunks = list(_chunk_digests(reads, self.config))
        new_bytes = new_chunks = logical = 0
        for digest, size in chunks:
            logical += size
            slot = self.index.get(digest)
            if slot is None:
                self.index[digest] = [size, 1]
                new_bytes += size
                new_chunks += 1
            else:
                slot[1] += 1
        self.objects[object_id] = [digest for digest, _ in chunks]
        return IngestResult(
            object_id=object_id,
            logical_bytes=logical,
            physical_new_bytes=new_bytes,
            chunk_count=len(chunks),
            new_chunk_count=new_chunks,
        )

    def logical_bytes(self) -> int:
        return sum(sum(self.index[d][0] for d in recipe) for recipe in self.objects.values())

    def physical_bytes(self) -> int:
        return sum(size for size, _ in self.index.values())

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
        for digest, (_, refcount) in self.index.items():
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


@dataclass
class ChunkStore(ChunkIndex):
    """A `ChunkIndex` that also keeps each distinct chunk's bytes, so
    objects can be restored."""

    chunks: dict = field(default_factory=dict)  # digest hex -> bytes

    def ingest(self, object_id: str, data) -> IngestResult:
        result = super().ingest(object_id, data)
        offset = 0
        for digest in self.objects[object_id]:
            size = self.index[digest][0]
            if digest not in self.chunks:
                self.chunks[digest] = bytes(data[offset : offset + size])
            offset += size
        return result

    def ingest_file(self, object_id: str, fh) -> IngestResult:
        return self.ingest(object_id, fh.read())

    def restore(self, object_id: str) -> bytes:
        recipe = self.objects.get(object_id)
        if recipe is None:
            raise ObjectNotFoundError(f"unknown object id: {object_id!r}")
        parts = []
        for digest in recipe:
            piece = self.chunks.get(digest)
            if piece is None:
                raise ChunkCorruptionError(f"object {object_id!r}: missing chunk {digest}")
            if hashlib.sha256(piece).hexdigest() != digest:
                raise ChunkCorruptionError(f"object {object_id!r}: chunk {digest} fails digest check")
            parts.append(piece)
        return b"".join(parts)

    def check_consistency(self) -> list[str]:
        """The index's checks, plus: every indexed chunk has bytes of its
        indexed size."""
        problems = super().check_consistency()
        for digest, (size, _) in self.index.items():
            piece = self.chunks.get(digest)
            if piece is None:
                problems.append(f"chunk {digest}: bytes missing")
            elif len(piece) != size:
                problems.append(f"chunk {digest}: {len(piece)} bytes but indexed as {size}")
        return problems


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
