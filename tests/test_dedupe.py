"""Content-defined chunking, the chunk store, and recover summaries."""

import hashlib
import io
import json
import random
import tracemalloc
from unittest import mock

import pytest
import numpy as np
from hypothesis import given, settings, strategies as st

from wastekit import dedupe
from wastekit.dedupe import (
    ChunkIndex,
    ChunkingConfig,
    ChunkStore,
    age_bucket_label,
    chunk,
    extension_token,
    recover_summary,
    size_bucket_label,
)
from wastekit.errors import ChunkCorruptionError, ObjectNotFoundError, WastekitError
from wastekit.model import FileKind, RuleSet
from wastekit.scanner import Snapshot

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
        ends = list(np.cumsum([size for _, size in want])[:-1])
        with mock.patch.object(dedupe, "_BLOCK", block):
            for edge in (block, 2 * block, 5 * block):
                for split in range(edge - config.window, edge + config.window + 1):
                    reads = (data[:split], data[split:])
                    cuts = [read_start + c for (_, cs), read_start in
                            zip(dedupe.cut_points(reads, config), (0, split)) for c in cs]
                    assert cuts == ends, split
                    assert list(dedupe._chunk_digests(reads, config)) == want, split

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
        data = random.Random(30).randbytes(8 << 20)
        index = ChunkIndex()
        tracemalloc.start()
        try:
            result = index.ingest_file("big", io.BytesIO(data))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.logical_bytes == len(data)
        assert peak < 4 << 20
        assert index.stats()["physical_bytes"] == len(data)

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
