"""Content-defined chunking, the chunk store, and recover summaries."""

import array
import hashlib
import io
import json
import random
import tracemalloc
from unittest import mock

import pytest
import numpy as np
from hypothesis import example, given, settings, strategies as st

from wastekit import dedupe
from wastekit.dedupe import (
    ChunkIndex,
    ChunkingConfig,
    ChunkStore,
    chunk,
)
from wastekit.errors import ChunkCorruptionError, ObjectNotFoundError, WastekitError
from wastekit.model import FileKind, RuleSet
from wastekit.scanner import (
    Snapshot,
    age_bucket_label,
    extension_token,
    recover_summary,
    size_bucket_label,
)

import naive_recover
from conftest import make_record
from naive_chunk import _rolling_hashes as naive_hashes, naive_chunk

SMALL = ChunkingConfig(min_chunk=64, target_chunk=256, max_chunk=1024, window=16)


def rand_bytes(rng, n):
    return rng.randbytes(n)


class TestChunkingConfig:
    def test_rejects_bad_ordering(self):
        with pytest.raises(WastekitError):
            ChunkingConfig(min_chunk=100, target_chunk=50, max_chunk=200)
        with pytest.raises(WastekitError):
            ChunkingConfig(min_chunk=0, target_chunk=1, max_chunk=2, window=1)

    def test_rejects_window_wider_than_min(self):
        with pytest.raises(WastekitError):
            ChunkingConfig(min_chunk=16, target_chunk=32, max_chunk=64, window=32)

    @pytest.mark.parametrize(
        "fields",
        [{"target_chunk": 8192.0}, {"min_chunk": 2048.5}, {"max_chunk": True}, {"window": "48"}, {"window": 48.0}],
    )
    def test_rejects_non_integer_sizes(self, fields):
        (name,) = fields
        with pytest.raises(WastekitError, match=f"^chunking config: {name} must be an integer, got "):
            ChunkingConfig(**fields)


class TestChunk:
    def test_empty_input(self):
        assert chunk(b"", SMALL) == []

    def test_short_input_is_single_chunk(self):
        data = b"tiny"
        assert chunk(data, SMALL) == [data]

    def test_concatenation_identity(self):
        rng = random.Random(10)
        for n in (0, 1, 63, 64, 65, 1000, 5000, 30_000):
            data = rand_bytes(rng, n)
            assert b"".join(chunk(data, SMALL)) == data

    def test_length_bounds(self):
        rng = random.Random(11)
        data = rand_bytes(rng, 50_000)
        chunks = chunk(data, SMALL)
        assert len(chunks) > 1
        for c in chunks[:-1]:
            assert SMALL.min_chunk <= len(c) <= SMALL.max_chunk
        assert 0 < len(chunks[-1]) <= SMALL.max_chunk

    def test_deterministic(self):
        rng = random.Random(12)
        data = rand_bytes(rng, 20_000)
        assert chunk(data, SMALL) == chunk(data, SMALL)

    def test_boundaries_shift_resistant(self):
        rng = random.Random(13)
        data = rand_bytes(rng, 40_000)
        orig = chunk(data, SMALL)
        shifted = chunk(b"\x00" + data, SMALL)
        # everything after the resync point is chunked identically
        assert set(orig[2:]) <= set(shifted) or orig[-5:] == shifted[-5:]

    def test_repeated_block_collapses(self):
        # n repeats of a max_chunk-aligned block produce a short cycle of
        # chunk values, so nearly all of the input deduplicates away.
        rng = random.Random(5)
        block = rand_bytes(rng, ChunkingConfig().max_chunk)
        n = 50
        chunks = chunk(block * n)
        distinct = {hashlib.sha256(c).digest() for c in chunks}
        assert len(distinct) <= 12
        store = ChunkStore()
        store.ingest("rep", block * n)
        assert store.dedup_ratio() > n / 2

    @settings(max_examples=80, deadline=None)
    @given(st.binary(max_size=6000))
    def test_identity_and_bounds_property(self, data):
        cfg = ChunkingConfig(min_chunk=32, target_chunk=64, max_chunk=256, window=8)
        chunks = chunk(data, cfg)
        assert b"".join(chunks) == data
        for c in chunks[:-1]:
            assert cfg.min_chunk <= len(c) <= cfg.max_chunk
        if chunks:
            assert len(chunks[-1]) <= cfg.max_chunk


@st.composite
def chunking_configs(draw):
    """Windows from 1 up to min_chunk (past 64, where rotations wrap) and
    targets that are mostly not powers of two."""
    min_chunk = draw(st.integers(1, 300))
    window = draw(st.integers(1, min_chunk))
    target = draw(st.integers(min_chunk, 3 * min_chunk + 50))
    max_chunk = draw(st.integers(target, 4 * target))
    return ChunkingConfig(min_chunk=min_chunk, target_chunk=target, max_chunk=max_chunk, window=window)


@st.composite
def chunk_inputs(draw):
    """Random, zero-run and 2-symbol data of lengths spread up to 6000
    bytes (st.binary would mostly draw inputs too short to cut)."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(0, 6000))
    kind = draw(st.sampled_from(("random", "zero-run", "two-symbol")))
    if kind == "random":
        return rng.randbytes(n)
    if kind == "zero-run":
        edge = rng.randbytes(n // 4)
        return edge + bytes(n - 2 * len(edge)) + edge
    return bytes(rng.choices(b"ab", k=n))


@st.composite
def power_of_two_configs(draw):
    """Configs whose target is a power of two, so cuts are found by the
    rotated-mask test instead of the remainder."""
    target = 1 << draw(st.integers(0, 9))
    min_chunk = draw(st.integers(1, target))
    window = draw(st.integers(1, min_chunk))
    max_chunk = draw(st.integers(target, 4 * target))
    return ChunkingConfig(min_chunk=min_chunk, target_chunk=target, max_chunk=max_chunk, window=window)


class TestHashMatchesOracle:
    """The prefix-XOR hash takes the values of the one-table-per-offset
    hash, at any starting offset of the block."""

    @pytest.mark.parametrize("window", [1, 2, 63, 64, 65, 200, 2048])
    def test_window_hashes(self, window):
        whole = -(-window // 64) * 64
        data = np.frombuffer(random.Random(window).randbytes(whole + 200), dtype=np.uint8)
        # lengths on and off a multiple of 64
        for n in sorted({window, window + 37, whole, whole + 64, whole + 141}):
            want = naive_hashes(data[:n], window)
            for pos in (0, 1, 63, 64 * 5 + 7):
                finder = dedupe._CutFinder(window, 3)
                assert np.array_equal(finder.hashes(data[:n], pos), want), (n, pos)


class TestChunkMatchesOracle:
    """`chunk` cuts exactly where the one-table-per-offset hash does."""

    @settings(max_examples=200, deadline=None)
    @given(chunking_configs(), chunk_inputs(), st.sampled_from((1, 7, 64, 1000)))
    def test_random_configs_and_blocks(self, config, data, block):
        with mock.patch.object(dedupe, "_BLOCK", block):
            assert chunk(data, config) == naive_chunk(data, config)

    @settings(max_examples=200, deadline=None)
    @given(power_of_two_configs(), chunk_inputs(), st.sampled_from((1, 7, 64, 1000)))
    def test_power_of_two_targets(self, config, data, block):
        with mock.patch.object(dedupe, "_BLOCK", block):
            assert chunk(data, config) == naive_chunk(data, config)

    @pytest.mark.parametrize("window", [1, 48, 64, 65, 200])
    def test_lengths_around_the_block_boundary(self, window):
        config = ChunkingConfig(min_chunk=256, target_chunk=300, max_chunk=3000, window=window)
        data = random.Random(window).randbytes(2 * dedupe._BLOCK + window + 1)
        for n in (dedupe._BLOCK + window - 2, dedupe._BLOCK + window - 1, dedupe._BLOCK + window, len(data)):
            assert chunk(data[:n], config) == naive_chunk(data[:n], config)


def naive_digests(data, config):
    return [(hashlib.sha256(piece).hexdigest(), len(piece)) for piece in naive_chunk(data, config)]


class TestStreamedChunking:
    """Reads of any size give the cuts and digests of the whole input."""

    @pytest.mark.parametrize("config", [SMALL, ChunkingConfig(min_chunk=64, target_chunk=200, max_chunk=900, window=33)])
    def test_split_at_every_offset_near_a_block_edge(self, config):
        block = 256
        data = random.Random(config.target_chunk).randbytes(6 * block + 77)
        want = naive_digests(data, config)
        with mock.patch.object(dedupe, "_BLOCK", block):
            for edge in (block, 2 * block, 5 * block):
                for split in range(edge - config.window, edge + config.window + 1):
                    reads = (data[:split], data[split:])
                    finder = dedupe._CutFinder(config.window, config.target_chunk)
                    assert list(dedupe._chunk_digests(reads, config, finder, {}, {})) == want, split

    @settings(max_examples=100, deadline=None)
    @given(chunking_configs() | power_of_two_configs(), chunk_inputs(), st.sampled_from((1, 7, 64)),
           st.integers(1, 4))
    def test_small_reads_match_the_oracle(self, config, data, block, read_blocks):
        with mock.patch.object(dedupe, "_BLOCK", block), mock.patch.object(dedupe, "_READ_BLOCKS", read_blocks):
            index = ChunkIndex(config=config)
            result = index.ingest_file("f", io.BytesIO(data))
        want = naive_digests(data, config)
        assert index.objects["f"] == [digest for digest, _ in want]
        assert result.logical_bytes == len(data)
        assert {d: size for d, (size, _) in index.index.items()} == dict(want)

    def test_memory_is_bounded_by_the_read_not_the_input(self):
        # The second ingest, a copy, is taken from remembered successors.
        data = random.Random(30).randbytes(8 << 20)
        index = ChunkIndex()
        tracemalloc.start()
        try:
            result = index.ingest_file("big", io.BytesIO(data))
            again = index.ingest_file("big-again", io.BytesIO(data))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.logical_bytes == again.logical_bytes == len(data)
        assert again.physical_new_bytes == 0
        assert peak < 4 << 20
        assert index.stats()["physical_bytes"] == len(data)

    def test_one_cut_finder_serves_every_object_of_an_index(self):
        rng = random.Random(32)
        with mock.patch.object(dedupe, "_CutFinder", wraps=dedupe._CutFinder) as built:
            index = ChunkIndex(config=SMALL)
            for i in range(30):
                index.ingest_file(f"f{i}", io.BytesIO(rng.randbytes(rng.randrange(0, 40_000))))
                index.ingest(f"b{i}", rng.randbytes(rng.randrange(0, 3000)))
        assert built.call_count == 1

    def test_failed_read_leaves_the_index_unchanged(self):
        class Failing(io.BytesIO):
            def readinto(self, buf):
                if self.tell() >= dedupe._BLOCK:
                    raise OSError("read failed")
                return super().readinto(memoryview(buf)[: dedupe._BLOCK])

        index = ChunkIndex()
        with pytest.raises(OSError):
            index.ingest_file("f", Failing(random.Random(31).randbytes(4 * dedupe._BLOCK)))
        assert (index.index, index.objects) == ({}, {})


@st.composite
def related_objects(draw):
    """(name, bytes) of objects made from one base, in a drawn order: the
    base, exact copies, copies with inserts and deletes, a prefix, the
    base with bytes appended, and a run of one piece repeated."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    base = draw(chunk_inputs())

    def edited(data):
        b = bytearray(data)
        for _ in range(rng.randint(1, 3)):
            pos = rng.randint(0, len(b))
            if rng.random() < 0.5:
                b[pos:pos] = rng.randbytes(rng.randint(1, 300))
            else:
                del b[pos : pos + rng.randint(1, 300)]
        return bytes(b)

    v1 = edited(base)
    objects = {
        "base": base,
        "copy": base,
        "copy-2": base,
        "v1": v1,
        "v2": edited(v1),
        "prefix": base[: rng.randint(0, len(base))],
        "appended": base + rng.randbytes(rng.randint(1, 2000)),
        "runs": base[: rng.randint(1, 600)] * rng.randint(2, 12),
    }
    return [(name, objects[name]) for name in draw(st.permutations(sorted(objects)))]


def ingest_streamed(index, object_id, data):
    return index.ingest_file(object_id, io.BytesIO(data))


def windows_hashed(index):
    """A list that gains the number of windows in each block the index's
    cut finder hashes from here on."""
    seen = []
    candidates = index._finder.candidates

    def counted(block, pos):
        seen.append(len(block) - index.config.window + 1)
        return candidates(block, pos)

    index._finder.candidates = counted
    return seen


def assert_index_is_recount(index, objects):
    """Every recipe is the oracle's chunking, and the index holds each
    distinct chunk once with its size and reference count."""
    sizes, counted = {}, {}
    for name, data in objects:
        want = naive_digests(data, index.config)
        assert index.objects[name] == [digest for digest, _ in want], name
        for digest, size in want:
            sizes[digest] = size
            counted[digest] = counted.get(digest, 0) + 1
    assert index.index == {digest: [sizes[digest], counted[digest]] for digest in sizes}


class TestSuccessorHints:
    """A chunk that repeats a remembered successor is taken by its sha256
    alone, and the recipes are those of the rolling hash over every byte."""

    @settings(max_examples=100, deadline=None)
    @given(chunking_configs() | power_of_two_configs(), related_objects(), st.sampled_from((1, 7, 64)),
           st.integers(1, 4), st.lists(st.booleans(), min_size=8, max_size=8))
    def test_related_objects_match_the_oracle(self, config, objects, block, read_blocks, streamed):
        with mock.patch.object(dedupe, "_BLOCK", block), mock.patch.object(dedupe, "_READ_BLOCKS", read_blocks):
            index = ChunkIndex(config=config)
            for (name, data), stream in zip(objects, streamed):
                result = (ingest_streamed if stream else ChunkIndex.ingest)(index, name, data)
                assert result.logical_bytes == len(data)
        assert_index_is_recount(index, objects)
        assert index.check_consistency() == []

    def test_a_copy_is_hashed_only_up_to_its_first_chunk(self):
        # Reads of 64 bytes and chunks of 64 to 1024: nearly every hinted
        # chunk runs over a read edge.
        data = random.Random(40).randbytes(30_000)
        with mock.patch.object(dedupe, "_BLOCK", 64), mock.patch.object(dedupe, "_READ_BLOCKS", 1):
            index = ChunkIndex(config=SMALL)
            ingest_streamed(index, "a", data)
            hashed = windows_hashed(index)
            ingest_streamed(index, "b", data)
            streamed = sum(hashed)
            index.ingest("c", data)
        # Each copy is hashed until its first chunk is settled: up to two
        # blocks past its end.
        first = naive_digests(data, SMALL)[0][1]
        assert 0 < streamed <= first + 2 * 64
        assert 0 < sum(hashed) - streamed <= first + 2 * 64
        assert_index_is_recount(index, [("a", data), ("b", data), ("c", data)])

    @pytest.mark.parametrize("streamed", [False, True])
    def test_input_that_ends_inside_or_at_the_end_of_a_hinted_chunk(self, streamed):
        data = random.Random(41).randbytes(20_000)
        ends = np.cumsum([size for _, size in naive_digests(data, SMALL)])
        assert len(ends) > 8
        ingest = ingest_streamed if streamed else ChunkIndex.ingest
        objects = [("base", data), ("inside", data[: ends[5] + 17]), ("at-end", data[: ends[6]]),
                   ("one-byte-short", data[: ends[7] - 1])]
        with mock.patch.object(dedupe, "_BLOCK", 64), mock.patch.object(dedupe, "_READ_BLOCKS", 2):
            index = ChunkIndex(config=SMALL)
            for name, obj in objects:
                ingest(index, name, obj)
        assert_index_is_recount(index, objects)

    def test_one_digest_followed_by_different_chunks(self):
        rng = random.Random(42)
        common = rng.randbytes(5000)
        x, y = common + rng.randbytes(5000), common + rng.randbytes(5000)
        objects = [("x", x), ("y", y), ("x-again", x), ("y-again", y), ("x-third", x)]
        index = ChunkIndex(config=SMALL)
        for name, obj in objects:
            index.ingest(name, obj)
        assert_index_is_recount(index, objects)
        # The last chunk wholly in `common` is followed by different chunks.
        x_chunks, y_chunks = index.objects["x"], index.objects["y"]
        shared = next(i for i, (a, b) in enumerate(zip(x_chunks, y_chunks)) if a != b)
        assert shared > 0 and x_chunks[shared] != y_chunks[shared]

    def test_an_edit_in_the_first_or_last_chunk(self):
        rng = random.Random(43)
        data = rng.randbytes(20_000)
        objects = [
            ("base", data),
            ("first-byte", bytes([data[0] ^ 1]) + data[1:]),
            ("inserted-at-start", b"x" + data),
            ("last-byte", data[:-1] + bytes([data[-1] ^ 1])),
            ("deleted-at-end", data[:-5]),
            ("base-again", data),
        ]
        with mock.patch.object(dedupe, "_BLOCK", 64), mock.patch.object(dedupe, "_READ_BLOCKS", 3):
            index = ChunkIndex(config=SMALL)
            for name, obj in objects:
                ingest_streamed(index, name, obj)
        assert_index_is_recount(index, objects)

    def test_failed_read_inside_a_hinted_chunk_leaves_the_index_unchanged(self):
        data = random.Random(44).randbytes(20_000)
        ends = np.cumsum([size for _, size in naive_digests(data, SMALL)])
        fail_at = int(ends[6]) + 10  # inside the eighth chunk, well past the first block

        class Failing(io.BytesIO):
            def readinto(self, buf):
                if self.tell() >= fail_at:
                    raise OSError("read failed")
                return super().readinto(memoryview(buf)[: fail_at - self.tell()])

        with mock.patch.object(dedupe, "_BLOCK", 64), mock.patch.object(dedupe, "_READ_BLOCKS", 1):
            index = ChunkIndex(config=SMALL)
            ingest_streamed(index, "base", data)
            before = (json.dumps(index.index), dict(index.objects), dict(index._next))
            hashed = windows_hashed(index)
            with pytest.raises(OSError):
                index.ingest_file("copy", Failing(data))
            assert sum(hashed) < ends[6] / 2  # the failure came in the hinted run
            assert (json.dumps(index.index), dict(index.objects), dict(index._next)) == before
            ingest_streamed(index, "copy", data)
        assert_index_is_recount(index, [("base", data), ("copy", data)])


class TestChunkStore:
    def test_identical_copy_adds_no_physical_bytes(self):
        rng = random.Random(20)
        data = rand_bytes(rng, 30_000)
        store = ChunkStore(config=SMALL)
        first = store.ingest("x", data)
        second = store.ingest("x-copy", data)
        assert first.physical_new_bytes == len(data)
        assert second.physical_new_bytes == 0
        assert second.logical_bytes == len(data)

    def test_random_objects_share_nothing(self):
        rng = random.Random(21)
        store = ChunkStore(config=SMALL)
        for i in range(40):
            store.ingest(f"o{i}", rand_bytes(rng, rng.randrange(0, 8000)))
        assert 1.0 <= store.dedup_ratio() < 1.01

    def test_duplicate_object_id_rejected(self):
        store = ChunkStore(config=SMALL)
        store.ingest("x", b"data")
        with pytest.raises(WastekitError, match="already ingested"):
            store.ingest("x", b"data")

    def test_restore_round_trip(self):
        rng = random.Random(22)
        store = ChunkStore(config=SMALL)
        blobs = {f"o{i}": rand_bytes(rng, rng.randrange(0, 5000)) for i in range(60)}
        for oid, data in blobs.items():
            store.ingest(oid, data)
        for oid, data in blobs.items():
            assert store.restore(oid) == data

    def test_wide_item_buffer_is_stored_by_bytes(self):
        data = array.array("I", random.Random(1).randbytes(40_000))
        store = ChunkStore(config=SMALL)
        assert store.ingest("a", data).logical_bytes == 40_000
        assert store.check_consistency() == []
        assert store.restore("a") == data.tobytes()

    def test_ingest_file_keeps_the_chunk_bytes(self):
        data = random.Random(23).randbytes(30_000)
        store = ChunkStore(config=SMALL)
        assert store.ingest_file("f", io.BytesIO(data)).logical_bytes == len(data)
        assert store.check_consistency() == []
        assert store.restore("f") == data

    def test_restore_unknown_id(self):
        with pytest.raises(ObjectNotFoundError):
            ChunkStore().restore("ghost")

    def test_restore_detects_tampered_chunk(self):
        store = ChunkStore(config=SMALL)
        store.ingest("x", b"A" * 500)
        digest = store.objects["x"][0]
        store.chunks[digest] = b"B" * 500
        with pytest.raises(ChunkCorruptionError, match="digest"):
            store.restore("x")

    def test_restore_detects_missing_chunk(self):
        store = ChunkStore(config=SMALL)
        store.ingest("x", b"A" * 500)
        del store.chunks[store.objects["x"][0]]
        with pytest.raises(ChunkCorruptionError, match="missing"):
            store.restore("x")
        assert any("bytes missing" in p for p in store.check_consistency())

    def test_prepended_byte_costs_little(self):
        rng = random.Random(0xC0DE)
        obj = rand_bytes(rng, 512 * 1024)
        store = ChunkStore()
        store.ingest("orig", obj)
        res = store.ingest("shifted", b"\x01" + obj)
        assert res.physical_new_bytes < len(obj) * 0.10

    def test_refcounts_match_recipe_references(self):
        rng = random.Random(23)
        store = ChunkStore(config=SMALL)
        base = rand_bytes(rng, 4000)
        for i in range(20):
            # overlapping content so refcounts exceed 1
            store.ingest(f"o{i}", base + rand_bytes(rng, rng.randrange(0, 2000)))
        assert store.check_consistency() == []
        counted = {}
        for recipe in store.objects.values():
            for d in recipe:
                counted[d] = counted.get(d, 0) + 1
        assert counted == {d: rc for d, (_, rc) in store.index.items()}

    def test_check_consistency_reports_drift(self):
        store = ChunkStore(config=SMALL)
        store.ingest("x", b"Z" * 300)
        digest = store.objects["x"][0]
        store.index[digest][1] = 7
        assert any("refcount" in p for p in store.check_consistency())

    def test_ratio_never_below_one(self):
        rng = random.Random(24)
        store = ChunkStore(config=SMALL)
        assert store.dedup_ratio() == 1.0
        for i in range(10):
            store.ingest(f"o{i}", rand_bytes(rng, 1000))
            assert store.dedup_ratio() >= 1.0

    def test_empty_object(self):
        store = ChunkStore()
        res = store.ingest("empty", b"")
        assert res.logical_bytes == res.physical_new_bytes == 0
        assert store.restore("empty") == b""


class TestBuckets:
    def test_size_buckets_are_powers_of_two(self):
        assert size_bucket_label(0) == "0"
        assert size_bucket_label(1) == "1"
        assert size_bucket_label(2) == "2"
        assert size_bucket_label(3) == "4"
        assert size_bucket_label(4) == "4"
        assert size_bucket_label(5) == "8"
        assert size_bucket_label(1025) == "2048"

    def test_age_bucket_edges(self):
        day = 86400
        assert age_bucket_label(0) == "0-1d"
        assert age_bucket_label(day - 1) == "0-1d"
        assert age_bucket_label(day) == "1-7d"
        assert age_bucket_label(7 * day) == "7-30d"
        assert age_bucket_label(30 * day) == "30-90d"
        assert age_bucket_label(90 * day) == "90-365d"
        assert age_bucket_label(365 * day) == "365d+"
        assert age_bucket_label(-50) == "0-1d"  # future mtime clamps

    def test_extension_tokens(self):
        assert extension_token("a/b/report.log") == "log"
        assert extension_token("archive.tar.gz") == "gz"
        assert extension_token("Makefile") == ""
        assert extension_token(".bashrc") == ""
        assert extension_token("UPPER.TXT") == "txt"


NOW = 10_000_000_000


def snap(records):
    return Snapshot(root="/syn", taken_at=NOW, records=sorted(records, key=lambda r: r.path))


class TestRecoverSummary:
    def test_zero_waste_gives_empty_histograms(self):
        rules = RuleSet(unwanted_globs=("*.junk",))
        recs = [make_record(path="fine.txt", mtime=NOW, atime=NOW)]
        s = recover_summary(snap(recs), rules)
        assert s.waste_files == 0
        assert s.extension_histogram == {}
        assert s.size_histogram == {}
        assert s.age_histogram == {}

    def test_ten_log_files(self):
        rules = RuleSet(unwanted_globs=("*.log",))
        recs = [
            make_record(path=f"logs/app{i}.log", size=1024, mtime=NOW - 100, atime=NOW - 100)
            for i in range(10)
        ]
        s = recover_summary(snap(recs), rules)
        assert s.extension_histogram == {"log": (10, 10240)}
        assert s.waste_files == 10
        assert s.waste_bytes == 10240

    def test_matches_brute_force_recount(self):
        rng = random.Random(0xEC0)
        rules = RuleSet(unintentional_globs=("*.tmp", "*.aux"), unwanted_globs=("junk/*",))
        recs = []
        for i in range(300):
            ext = rng.choice(["tmp", "aux", "dat", "log"])
            prefix = rng.choice(["junk/", "work/", ""])
            recs.append(
                make_record(
                    path=f"{prefix}item{i:03d}.{ext}",
                    size=rng.randrange(0, 1 << 20),
                    mtime=NOW - rng.randrange(0, 800) * 86400,
                    atime=NOW - rng.randrange(0, 800) * 86400,
                )
            )
        s = recover_summary(snap(recs), rules)

        # recount with bucketing written out longhand
        from wastekit.model import classify

        exp_ext, exp_size, exp_age = {}, {}, {}
        exp_files = exp_bytes = 0
        for r in recs:
            if not classify(r, rules, NOW).is_waste():
                continue
            exp_files += 1
            exp_bytes += r.size_bytes
            ext = r.path.rsplit("/", 1)[-1]
            ext = ext.rsplit(".", 1)[1].lower() if "." in ext[1:] else ""
            ub = 0 if r.size_bytes == 0 else 1
            while ub < r.size_bytes:
                ub *= 2
            days = (NOW - r.mtime) // 86400
            if days < 1:
                age = "0-1d"
            elif days < 7:
                age = "1-7d"
            elif days < 30:
                age = "7-30d"
            elif days < 90:
                age = "30-90d"
            elif days < 365:
                age = "90-365d"
            else:
                age = "365d+"
            for hist, key in ((exp_ext, ext), (exp_size, str(ub)), (exp_age, age)):
                c, b = hist.get(key, (0, 0))
                hist[key] = (c + 1, b + r.size_bytes)
        assert s.waste_files == exp_files
        assert s.waste_bytes == exp_bytes
        assert s.extension_histogram == exp_ext
        assert s.size_histogram == exp_size
        assert s.age_histogram == exp_age

    def test_output_carries_no_path_fragments(self):
        rules = RuleSet(unwanted_globs=("*",))
        recs = [
            make_record(path="secret_project/q3_revenue_forecast.xlsx", size=77, mtime=NOW - 10, atime=NOW - 10),
            make_record(path="hr/salaries_2026.csv", size=900, mtime=NOW - 10**6, atime=NOW - 10**6),
        ]
        serialized = json.dumps(recover_summary(snap(recs), rules).to_json_obj())
        for fragment in ("secret", "revenue", "forecast", "salaries", "2026", "hr/", "q3"):
            assert fragment not in serialized
        assert "xlsx" in serialized and "csv" in serialized  # the allowed final token

    def test_directories_and_symlinks_can_count_as_waste(self):
        rules = RuleSet(unwanted_globs=("stale*",))
        recs = [
            make_record(path="staledir", size=0, kind=FileKind.DIRECTORY, mtime=NOW, atime=NOW),
            make_record(path="stalelink", size=3, kind=FileKind.SYMLINK, mtime=NOW, atime=NOW),
        ]
        s = recover_summary(snap(recs), rules)
        assert s.waste_files == 2


# Names whose dots lead, trail or repeat, upper-case and non-ASCII
# extensions (`İ` lowers to two characters), and any name of those
# characters; each may sit in a dotted directory, or under `keep/`,
# which the rules below keep out of the waste.
EDGE_NAMES = (".bashrc", "a.", "...", "..a.b", ".a.", "a..b", "noext", "X.TXT", "x.İ", "café.ÉTÉ")
recover_names = st.sampled_from(EDGE_NAMES) | st.text(".aXİé ", min_size=1, max_size=6).filter(
    lambda name: name not in (".", "..")
)
recover_paths = st.builds(lambda d, name: d + name, st.sampled_from(("", "d.d/", "a/b.c/", "keep/")), recover_names)
recover_sizes = (
    st.sampled_from((0, 1, 2, 3))
    | st.builds(lambda k, d: max(0, (1 << k) + d), st.integers(0, 70), st.sampled_from((-1, 0, 1)))
    | st.integers(1 << 64, 1 << 80)
)
recover_ages = (
    st.integers(-10 * 86400, -1)
    | st.builds(lambda days, d: days * 86400 + d, st.sampled_from((0, 1, 7, 30, 90, 365)), st.sampled_from((-1, 0, 1)))
    | st.integers(0, 1000 * 86400)
)


class TestRecoverOracle:
    """`recover_summary` and its bucket helpers against the reference
    in `naive_recover`."""

    RULES = RuleSet(not_waste_globs=("keep/*",), unwanted_globs=("*",))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(recover_paths, recover_sizes, recover_ages), max_size=30, unique_by=lambda t: t[0]))
    @example([("e", 0, 0), ("t", 2, 0)])  # size 0 and size 2 share the bit length 1
    def test_matches_reference(self, drawn):
        recs = [make_record(path=p, size=size, mtime=NOW - age, atime=NOW - age) for p, size, age in drawn]
        for p, size, age in drawn:
            assert extension_token(p) == naive_recover.extension_token(p)
            assert size_bucket_label(size) == naive_recover.size_bucket_label(size)
            assert age_bucket_label(age) == naive_recover.age_bucket_label(age)
        got = recover_summary(snap(recs), self.RULES)
        want = naive_recover.recover_summary(snap(recs), self.RULES)
        assert got == want
        assert json.dumps(got.to_json_obj()) == json.dumps(want.to_json_obj())
