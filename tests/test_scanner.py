"""Filesystem walking, snapshot persistence, reports, and diffs."""

import errno
import hashlib
import io
import json
import os
import random
import re
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from wastekit.errors import WastekitError
import wastekit
import wastekit.scanner as scanner_mod
from wastekit.model import (
    FileKind, FileRecord, RuleSet, TreeOpener, WasteCategory, atime_moved_warning, classify, is_relative,
)
from wastekit.scanner import (
    DIGEST_UNREADABLE,
    ChurnReport,
    ScanOptions,
    Snapshot,
    diff,
    _json_line,
    dump_snapshot,
    read_snapshot,
    read_snapshot_pair,
    report,
    scan,
    write_snapshot,
)

from conftest import make_record
from naive_glob import naive_classify
from naive_scan import naive_scan
from naive_snapshot import naive_read_snapshot, record_from_obj, record_obj


def touch(path, content=b"", mtime=None, atime=None):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(content)
    if mtime is not None:
        os.utime(path, times=(atime if atime is not None else mtime, mtime))


def dumps(snapshot):
    buf = io.StringIO()
    dump_snapshot(snapshot, buf)
    return buf.getvalue()


def deny_listing(monkeypatch, *names):
    """Make the directories whose paths end in one of `names` unreadable:
    `os.open` (the scanner's way in) and `os.scandir` by path (the
    oracle's) both fail for them as a directory without read permission
    would, even for root."""
    real_open, real_scandir = os.open, os.scandir
    suffixes = tuple("/" + name for name in names)

    def check(path):
        if isinstance(path, str) and path.endswith(suffixes):
            raise PermissionError(errno.EACCES, "Permission denied (simulated)", path)

    def fake_open(path, flags, *args, **kw):
        check(path)
        return real_open(path, flags, *args, **kw)

    def fake_scandir(path="."):
        check(path)
        return real_scandir(path)

    monkeypatch.setattr(os, "open", fake_open)
    monkeypatch.setattr(os, "scandir", fake_scandir)


class TestScan:
    def test_empty_directory(self, tmp_path):
        snap = scan(str(tmp_path))
        assert snap.records == []
        assert snap.root == str(tmp_path)

    def test_missing_root_is_fatal(self, tmp_path):
        with pytest.raises(WastekitError, match="scan root"):
            scan(str(tmp_path / "nope"))

    def test_records_sorted_and_typed(self, tmp_path):
        touch(tmp_path / "b.txt", b"bb")
        touch(tmp_path / "sub" / "a.txt", b"a")
        os.symlink("b.txt", tmp_path / "link")
        snap = scan(str(tmp_path))
        paths = [r.path for r in snap.records]
        assert paths == sorted(paths) == ["b.txt", "link", "sub", "sub/a.txt"]
        kinds = {r.path: r.kind for r in snap.records}
        assert kinds["sub"] is FileKind.DIRECTORY
        assert kinds["link"] is FileKind.SYMLINK
        assert kinds["b.txt"] is FileKind.REGULAR
        sizes = {r.path: r.size_bytes for r in snap.records}
        assert sizes["b.txt"] == 2
        assert sizes["sub"] == 0  # directories carry no size
        snap.validate()

    def test_symlink_cycle_unfollowed(self, tmp_path):
        touch(tmp_path / "d" / "f", b"x")
        os.symlink(str(tmp_path / "d"), tmp_path / "d" / "loop")
        snap = scan(str(tmp_path))
        by_path = {r.path: r for r in snap.records}
        assert by_path["d/loop"].kind is FileKind.SYMLINK
        assert len(snap.records) == 3  # d, d/f, d/loop — terminated

    def test_symlink_cycle_followed_terminates(self, tmp_path):
        touch(tmp_path / "d" / "f", b"x")
        os.symlink(str(tmp_path / "d"), tmp_path / "d" / "loop")
        snap = scan(str(tmp_path), ScanOptions(follow_symlinks=True))
        # loop is recorded as a directory but its contents appear once
        assert sum(1 for r in snap.records if r.path.endswith("f")) == 1

    def test_hardlinks_counted_once(self, tmp_path):
        touch(tmp_path / "z_orig", b"payload")
        os.link(tmp_path / "z_orig", tmp_path / "a_link")
        snap = scan(str(tmp_path))
        regular = [r.path for r in snap.records if r.kind is FileKind.REGULAR]
        assert regular == ["a_link"]  # lexicographically smallest survives
        assert any("hardlink" in w for w in snap.warnings)

    def test_exclude_globs(self, tmp_path):
        touch(tmp_path / "keep.txt", b"k")
        touch(tmp_path / "drop.tmp", b"d")
        touch(tmp_path / "cache" / "x", b"x")
        snap = scan(str(tmp_path), ScanOptions(exclude_globs=("*.tmp", "cache")))
        assert [r.path for r in snap.records] == ["keep.txt"]

    def test_unreadable_subtree_warns_and_continues(self, tmp_path, monkeypatch):
        touch(tmp_path / "ok" / "f", b"x")
        (tmp_path / "locked").mkdir()
        touch(tmp_path / "locked" / "secret", b"s")
        deny_listing(monkeypatch, "locked")
        snap = scan(str(tmp_path))
        assert any("unreadable" in w for w in snap.warnings)
        assert "ok/f" in {r.path for r in snap.records}
        assert "locked/secret" not in {r.path for r in snap.records}

    def test_atime_reliability_flag(self, tmp_path):
        touch(tmp_path / "f", b"x", mtime=2000, atime=1000)
        snap = scan(str(tmp_path))
        assert snap.atime_reliable is False
        touch(tmp_path / "f", b"x", mtime=1000, atime=2000)
        assert scan(str(tmp_path)).atime_reliable is True

    def test_worker_count_does_not_change_output(self, tmp_path):
        rng = random.Random(42)
        for i in range(60):
            touch(tmp_path / f"d{i % 7}" / f"f{i:03d}", bytes(rng.randrange(256) for _ in range(i)))
        one = scan(str(tmp_path), ScanOptions(workers=1), now=12345)
        many = scan(str(tmp_path), ScanOptions(workers=8), now=12345)
        assert dumps(one) == dumps(many)

    @pytest.mark.parametrize("workers", [1.5, True, "2"])
    def test_workers_must_be_an_int(self, workers):
        # 1.5 and True were once accepted, and "2" failed with a TypeError.
        with pytest.raises(WastekitError, match=r"^workers must be an integer, got \S+$"):
            ScanOptions(workers=workers)


def build_odd_tree(root, now):
    """A tree with one of every kind of entry the walker tells apart."""
    touch(root / "a" / "b" / "c" / "deep.txt", b"deep", mtime=now - 5000, atime=now - 4000)
    touch(root / "top.txt", b"12345", mtime=now - 100, atime=now - 200)  # atime < mtime
    touch(root / "z_orig", b"payload", mtime=now + 10**6)  # the dropped links are in the future too
    os.link(root / "z_orig", root / "a_link")
    os.link(root / "z_orig", root / "a" / "b" / "hard")
    (root / "empty").mkdir()
    os.symlink("top.txt", root / "file_link")
    os.symlink("a", root / "dir_link")
    os.symlink("missing", root / "broken")
    os.symlink("loop2", root / "loop1")
    os.symlink("loop1", root / "loop2")
    os.symlink(str(root / "a"), root / "a" / "b" / "up")
    os.mkfifo(root / "fifo")
    touch(root / "locked" / "secret", b"s")
    touch(root / "x.tmp", b"t")
    touch(root / "cache.tmp" / "inner", b"i")
    touch(root / "future.dat", b"f", mtime=now + 10**6)
    touch(root / "negative.dat", b"n", mtime=-100, atime=-5)
    touch(root / "na\u00efve \u00fc \U0001f600 \"q\" \\.txt", b"u")
    with open(os.path.join(os.fsencode(root), b"raw\xff\xfe.bin"), "wb") as fh:
        fh.write(b"r")
    # The oracle lists directories by path, which on a relatime mount moves
    # the atime of a directory that a followed symlink stats later in the
    # same walk. One listing now moves each atime past the ctime, and
    # relatime leaves it there for a day.
    naive_scan(str(root), ScanOptions(follow_symlinks=True))


_ORACLE_OPTIONS = [
    ScanOptions(),
    ScanOptions(workers=3),
    ScanOptions(follow_symlinks=True),
    ScanOptions(follow_symlinks=True, workers=3),
    ScanOptions(one_filesystem=True),
    ScanOptions(exclude_globs=("*.tmp", "a/b", "fifo")),
    ScanOptions(follow_symlinks=True, one_filesystem=True, exclude_globs=("dir_link",), workers=3),
]


class TestScanOracle:
    """The walker opens each directory once and stats entries relative to
    its fd; `naive_scan` lists by path and lstats each joined path. The
    two must give the same snapshot, warnings and atime flag."""

    def compare(self, root, options, now):
        got = scan(str(root), options, now=now)  # first: it moves no atime
        want = naive_scan(str(root), options, now=now)
        assert got.warnings == want.warnings
        assert got.atime_reliable == want.atime_reliable
        assert got.records == want.records
        assert dumps(got) == dumps(want)
        assert all(type(rec) is FileRecord for rec in got.records)
        return got

    @pytest.mark.parametrize("options", _ORACLE_OPTIONS, ids=repr)
    def test_odd_tree_matches_oracle(self, tmp_path, monkeypatch, options):
        now = int(time.time())
        build_odd_tree(tmp_path, now)
        deny_listing(monkeypatch, "locked")
        got = self.compare(tmp_path, options, now)
        assert any(w.startswith("unreadable directory skipped: locked: ") for w in got.warnings)
        assert "negative timestamps clamped to 0 on 1 entr(ies)" in got.warnings
        links = 1 if "a/b" in options.exclude_globs else 2
        assert f"hardlink duplicates skipped: {links}" in got.warnings
        kinds = {rec.path: rec.kind for rec in got.records}
        if "fifo" not in options.exclude_globs:
            assert kinds["fifo"] is FileKind.OTHER
        if options.follow_symlinks:
            assert "broken symlink recorded unfollowed: loop1" in got.warnings
            assert kinds["file_link"] is FileKind.REGULAR
        else:
            assert kinds["loop1"] is FileKind.SYMLINK

    def test_entry_vanishing_after_listing_matches_oracle(self, tmp_path, monkeypatch):
        now = int(time.time())
        touch(tmp_path / "v" / "gone", b"g")
        touch(tmp_path / "v" / "stays", b"s")
        real_scandir = os.scandir

        class Listing:
            """A directory's entries, listed before `gone` is removed."""

            def __init__(self, path):
                with real_scandir(path) as it:
                    self.entries = list(it)
                for entry in self.entries:
                    if entry.name == "gone":
                        os.unlink(entry.name, dir_fd=path) if isinstance(path, int) else os.unlink(entry.path)

            def __enter__(self):
                return iter(self.entries)

            def __exit__(self, *exc):
                return False

        monkeypatch.setattr(os, "scandir", Listing)
        got = scan(str(tmp_path), now=now)
        touch(tmp_path / "v" / "gone", b"g")
        want = naive_scan(str(tmp_path), now=now)
        gone = os.path.join(str(tmp_path), "v", "gone")
        assert got.warnings == want.warnings == [
            f"unreadable entry skipped: v/gone: [Errno 2] No such file or directory: {gone!r}"
        ]
        assert dumps(got) == dumps(want)


class TestScanAtime:
    def test_listing_keeps_directory_atimes(self, tmp_path):
        touch(tmp_path / "d" / "e" / "f", b"x")
        for path in (tmp_path / "d" / "e", tmp_path / "d", tmp_path):
            os.utime(path, (1000, 2000))  # atime < mtime: relatime would move it
        before = [os.stat(p).st_atime_ns for p in (tmp_path, tmp_path / "d", tmp_path / "d" / "e")]
        for workers in (1, 3):
            snap = scan(str(tmp_path), ScanOptions(workers=workers))
            assert {rec.path: rec.atime for rec in snap.records if rec.kind is FileKind.DIRECTORY} == {"d": 1000, "d/e": 1000}
        assert [os.stat(p).st_atime_ns for p in (tmp_path, tmp_path / "d", tmp_path / "d" / "e")] == before
        assert snap.warnings == []

    @pytest.mark.parametrize("workers", [1, 3])
    def test_refused_noatime_falls_back_with_one_warning(self, tmp_path, monkeypatch, workers):
        touch(tmp_path / "d" / "e" / "f", b"x")
        touch(tmp_path / "g", b"y")
        plain = scan(str(tmp_path))
        real_open = os.open

        def refuse_noatime(path, flags, *args, **kw):
            if flags & os.O_NOATIME:
                raise PermissionError(errno.EPERM, "Operation not permitted", path)
            return real_open(path, flags, *args, **kw)

        monkeypatch.setattr(os, "open", refuse_noatime)
        snap = scan(str(tmp_path), ScanOptions(workers=workers), now=plain.taken_at)
        assert snap.records == plain.records
        assert snap.warnings == [atime_moved_warning(3)]  # ., d and d/e


class TestSnapshotIO:
    def test_round_trip(self, tmp_path):
        touch(tmp_path / "a", b"aa", mtime=100, atime=200)
        snap = scan(str(tmp_path), now=500)
        out = tmp_path / "snap.jsonl"
        write_snapshot(snap, str(out))
        back = read_snapshot(str(out))
        assert back.root == snap.root
        assert back.taken_at == 500
        assert back.records == snap.records
        # a second write is byte-identical
        again = tmp_path / "snap2.jsonl"
        write_snapshot(back, str(again))
        assert out.read_bytes() == again.read_bytes()

    def test_rejects_non_snapshot_file(self, tmp_path):
        p = tmp_path / "junk"
        p.write_text('{"something": "else"}\n')
        with pytest.raises(WastekitError):
            read_snapshot(str(p))

    @pytest.mark.parametrize(
        "path, ok",
        [("../x", False), ("/abs/x", False), ("a/../b", False), ("a/./b", False), ("a//b", False), ("a/", False),
         (".", False), ("..", False), (5, False),
         ("...", True), ("a\\b", True), (".hidden", True), ("a..b", True), ("d/...", True)],
    )
    def test_record_path_rule(self, tmp_path, path, ok):
        p = tmp_path / "s.snap"
        header = {"format": "wastekit-snapshot-v1", "root": "/r", "taken_at": 10}
        record = record_obj(make_record(path="placeholder")) | {"path": path}
        p.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
        if ok:
            assert read_snapshot(str(p)).records[0].path == path
        else:
            with pytest.raises(WastekitError, match="line 2: malformed file record: record path .* must be relative"):
                read_snapshot(str(p))

    def test_number_too_long_to_read_names_file_and_line(self, tmp_path):
        p = tmp_path / "s.snap"
        header = {"format": "wastekit-snapshot-v1", "root": "/r", "taken_at": 10}
        record = _json_line(record_obj(make_record(path="a", size=7))).replace('"size_bytes":7', '"size_bytes":' + "9" * 5000)
        p.write_text(json.dumps(header) + "\n" + record)
        with pytest.raises(WastekitError) as info:
            read_snapshot(str(p))
        assert str(info.value) == f"snapshot {p} line 2 holds a number too long to read"

    @pytest.mark.parametrize("warnings", [[5, {"a": 1}], ["ok", None]])
    def test_rejects_header_warnings_that_are_not_strings(self, tmp_path, warnings):
        p = tmp_path / "s.snap"
        header = {"format": "wastekit-snapshot-v1", "root": "/r", "taken_at": 10, "warnings": warnings}
        p.write_text(json.dumps(header) + "\n")
        with pytest.raises(WastekitError, match="header needs .* a 'warnings' list"):
            read_snapshot(str(p))

    @pytest.mark.parametrize("root", ["relroot", "", "./r", "r/"])
    def test_rejects_relative_header_root(self, tmp_path, root):
        # `scan` always writes an absolute root; a relative one would be
        # resolved against the reader's working directory.
        p = tmp_path / "s.snap"
        header = {"format": "wastekit-snapshot-v1", "root": root, "taken_at": 10}
        p.write_text(json.dumps(header) + "\n" + json.dumps(record_obj(make_record(path="a"))) + "\n")
        want = (
            f"snapshot {p} header needs an absolute path 'root', an integer 'taken_at', "
            "and optionally a boolean 'atime_reliable' and a 'warnings' list"
        )
        for reader in (read_snapshot, naive_read_snapshot):
            with pytest.raises(WastekitError) as info:
                reader(str(p))
            assert str(info.value) == want

    def test_rejects_unsorted_records(self):
        with pytest.raises(WastekitError, match="sorted"):
            Snapshot(root="/r", taken_at=10, records=[make_record(path="b"), make_record(path="a")])

    @pytest.mark.parametrize("root", ["rel", "", "./r", b"/r", None])
    def test_root_must_be_absolute_when_made(self, root):
        # Once `write_snapshot` wrote such a snapshot, and `read_snapshot`
        # then refused the file.
        with pytest.raises(WastekitError) as info:
            Snapshot(root=root, taken_at=0, records=[])
        assert str(info.value) == (
            "snapshot needs an absolute path root, an integer taken_at, a boolean atime_reliable and a list of "
            f"str warnings, got {root!r}, 0, True and []"
        )

    @pytest.mark.parametrize(
        "fields",
        [{"taken_at": "7"}, {"taken_at": 7.0}, {"taken_at": True}, {"atime_reliable": "yes"}, {"atime_reliable": 1},
         {"warnings": "ab"}, {"warnings": ("a",)}, {"warnings": ["a", 5]}, {"warnings": [10**5000]}],
        ids=["taken_at-str", "taken_at-float", "taken_at-bool", "atime_reliable-str", "atime_reliable-int",
             "warnings-str", "warnings-tuple", "warnings-int", "warnings-long-int"],
    )
    def test_header_fields_are_checked_when_made(self, fields):
        # Once such a snapshot was accepted: `write_snapshot` then wrote a
        # file that `read_snapshot` refused, and `report` took the string
        # "ab" as the warnings 'a' and 'b'.
        with pytest.raises(WastekitError, match="^snapshot needs an absolute path root, an integer taken_at"):
            Snapshot(**{"root": "/r", "taken_at": 7, "records": []} | fields)

    def test_validate_checks_fields_changed_after_made(self):
        snap = Snapshot(root="/r", taken_at=7, records=[])
        snap.warnings = "ab"
        with pytest.raises(WastekitError, match="list of str warnings, got '/r', 7, True and 'ab'"):
            snap.validate()

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"], ids=repr)
    def test_raw_line_separator_in_path_reads(self, tmp_path, char):
        # JSON allows these raw in a string, and only `\n` ends a line.
        p = tmp_path / "s.snap"
        header = {"format": "wastekit-snapshot-v1", "root": "/r", "taken_at": 10}
        record = record_obj(make_record(path=f"a{char}b"))
        p.write_text(json.dumps(header) + "\n" + json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
        assert [rec.path for rec in read_snapshot(str(p)).records] == [f"a{char}b"]

    @pytest.mark.parametrize("char", ["\x0c", "\u2028", "\x85"], ids=repr)
    def test_two_records_on_one_line_are_one_malformed_line(self, tmp_path, char):
        p = tmp_path / "s.snap"
        header = json.dumps({"format": "wastekit-snapshot-v1", "root": "/r", "taken_at": 10})
        a, b = (json.dumps(record_obj(make_record(path=path))) for path in ("a", "b"))
        p.write_text(header + "\n" + a + char + b + "\n", encoding="utf-8")
        with pytest.raises(WastekitError, match=r"line 2 is not valid JSON: Extra data"):
            read_snapshot(str(p))
        p.write_text(header + char + a + "\n", encoding="utf-8")
        with pytest.raises(WastekitError, match=r"header is not valid JSON: Extra data"):
            read_snapshot(str(p))


# Characters `json.dumps` escapes, or spells as \\u escapes or pairs:
# quotes, backslashes, control characters, a line separator, non-ASCII,
# astral, and the surrogate escapes that non-UTF-8 file names decode to.
_PATH_CHARS = st.one_of(
    st.characters(),
    st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\x7f", "\u2028", "\u00e9", "\U0001f600", "/"]),
    st.integers(0xDC80, 0xDCFF).map(chr),
)
_WRITER_INTS = st.integers(0, 2**70)


def _accepted_record(**fields):
    """The record `FileRecord` makes of `fields`, or None if it refuses them."""
    try:
        return FileRecord(**fields)
    except ValueError:
        return None


# Every record `FileRecord` accepts, in lists sorted by path with no path
# twice, as a `Snapshot` holds them.
_WRITER_RECORDS = st.lists(
    st.builds(
        _accepted_record,
        path=st.text(_PATH_CHARS, min_size=1, max_size=12),
        size_bytes=_WRITER_INTS,
        mtime=_WRITER_INTS,
        atime=_WRITER_INTS,
        kind=st.sampled_from(list(FileKind)),
        allocated_bytes=st.one_of(st.none(), _WRITER_INTS),
    ).filter(lambda rec: rec is not None),
    max_size=8,
    unique_by=lambda rec: rec.path,
).map(lambda recs: sorted(recs, key=lambda rec: rec.path))


class TestSnapshotWriter:
    @settings(max_examples=300, deadline=None)
    @given(
        records=_WRITER_RECORDS,
        batch=st.integers(1, 4),
        warnings=st.lists(st.text(_PATH_CHARS, max_size=5), max_size=2),
    )
    def test_lines_equal_json_dumps(self, records, batch, warnings):
        snap = Snapshot(root="/r\u00e9", taken_at=7, records=records, atime_reliable=False, warnings=warnings)
        header = {
            "format": "wastekit-snapshot-v1", "root": snap.root, "taken_at": 7, "tool_version": wastekit.__version__,
            "atime_reliable": False, "warnings": warnings,
        }
        want = _json_line(header) + "".join(_json_line(record_obj(rec)) for rec in records)
        saved = scanner_mod._WRITE_BATCH
        scanner_mod._WRITE_BATCH = batch
        try:
            assert dumps(snap) == want
        finally:
            scanner_mod._WRITE_BATCH = saved

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(records=_WRITER_RECORDS)
    def test_every_record_reads_back(self, tmp_path, records):
        p = tmp_path / "s.snap"
        write_snapshot(Snapshot(root="/r", taken_at=7, records=records), str(p))
        assert read_snapshot(str(p)).records == records


_HEADER = {"format": "wastekit-snapshot-v1", "root": "/r", "taken_at": 10}
_NAMES = st.text(alphabet="ab.", min_size=1, max_size=3)
_PATHS = st.lists(st.lists(_NAMES, min_size=1, max_size=3).map("/".join), max_size=6, unique=True).map(sorted)
# A raw U+2028 or U+0085 ends no line, so a path may hold one.
_BAD_PATHS = ["../x", "/abs", "a/../b", "a/./b", "a//b", "a/", ".", "..", "", 5, None]
_GOOD_PATHS = ["...", "a\\b", ".hidden", "a\u2028b", "a\x85b"]
_ODD_NUMBERS = [True, False, 1.5, -1, None, "7", 2**70]  # all but 2**70 are rejected
_NOT_OBJECTS = ["[1, 2]", "5", '"s"', "null", "{}", "[]", "{", "x"]
_DROP = "<dropped>"
# (key, value) put into one record of three; key None replaces the whole line.
_SINGLE_FAULTS = (
    [(key, value) for key in ("size_bytes", "mtime", "atime", "allocated_bytes") for value in _ODD_NUMBERS]
    + [(key, _DROP) for key in ("path", "size_bytes", "mtime", "atime", "kind", "allocated_bytes")]
    + [("kind", value) for value in ("Weird", "regular", [], {}, None, 1)]
    + [("path", value) for value in _BAD_PATHS + _GOOD_PATHS + ["b"]]
    + [(None, text) for text in _NOT_OBJECTS + [" " + json.dumps(record_obj(make_record(path="b"))) + " "]]
    + [("extra", 1)]
)


def _record_obj(path, data):
    obj = {
        "path": path,
        "size_bytes": data.draw(st.integers(0, 2**40)),
        "mtime": data.draw(st.integers(0, 2**33)),
        "atime": data.draw(st.integers(0, 2**33)),
        "kind": data.draw(st.sampled_from([kind.value for kind in FileKind])),
    }
    if data.draw(st.booleans()):
        obj["allocated_bytes"] = data.draw(st.integers(0, 2**40))
    return obj


def _mutate_record(objs, i, data):
    """One fault, or one harmless change, in record i."""
    what = data.draw(st.sampled_from(["number", "drop", "kind", "not-object", "extra", "path", "swap", "dup"]))
    obj = objs[i]
    if isinstance(obj, str):  # already not an object
        return
    if what == "number":
        field_ = data.draw(st.sampled_from(["size_bytes", "mtime", "atime", "allocated_bytes"]))
        obj[field_] = data.draw(st.sampled_from(_ODD_NUMBERS))
    elif what == "drop" and obj:
        obj.pop(data.draw(st.sampled_from(sorted(obj))))
    elif what == "kind":
        obj["kind"] = data.draw(st.sampled_from(["Weird", "regular", [], {}, None, 1]))
    elif what == "not-object":
        objs[i] = data.draw(st.sampled_from(_NOT_OBJECTS))
    elif what == "extra":
        obj["extra"] = 1
    elif what == "path":
        obj["path"] = data.draw(st.sampled_from(_BAD_PATHS + _GOOD_PATHS))
    elif what == "swap" and i + 1 < len(objs):
        objs[i], objs[i + 1] = objs[i + 1], objs[i]
    elif what == "dup":
        objs.insert(i, dict(obj))


def _mutate_lines(lines, i, data):
    """Re-frame line i: join it with the next, split it, pad it, or put a
    blank line before it."""
    what = data.draw(st.sampled_from(["join", "split", "pad", "blank"]))
    if what == "join" and i + 1 < len(lines):
        lines[i : i + 2] = [lines[i] + data.draw(st.sampled_from(["", " "])) + lines[i + 1]]
    elif what == "split":
        cut = data.draw(st.integers(0, len(lines[i])))
        lines[i : i + 1] = [lines[i][:cut], lines[i][cut:]]
    elif what == "pad":
        lines[i] = data.draw(st.sampled_from(["", " ", "\t"])) + lines[i] + data.draw(st.sampled_from(["", " ", "\t"]))
    elif what == "blank":
        lines.insert(i, data.draw(st.sampled_from(["", "  "])))


# Faults put into a line in the writer's form: paths, integers at and past
# the 19 digits read in one pass (and past Python's 4,300-digit limit for
# str-to-int), and a null allocated_bytes. Paths are quoted by `json.dumps`,
# or else written as the quoted forms below, escapes that the writer never
# writes, a lone surrogate and a bad escape among them.
_WRITER_LINE_PATHS = ["a//b", "..", "/abs", "a\\b", "caf\u00e9", "a\u2028b", 'a"b', "t\tb", "\U0001f600"]
_WRITER_LINE_QUOTED = ['"a\\/b"', '"\\u00E9"', '"a\\u002f\\u002fb"', '"\\ud800"', '"\\u0000"', '"a\\x"', '"a\\u12"']
_WRITER_LINE_NUMBERS = ["9" * 19, "1" + "0" * 19, "9" * 5000]


def _mutate_writer_line(lines, i, data):
    """One fault, or one harmless change, in line i as the writer wrote it."""
    what = data.draw(st.sampled_from(["record", "path", "number", "null"]))
    line = lines[i]
    if what == "record":
        try:
            objs = [json.loads(line)]
        except ValueError:  # not JSON, or an integer too long to convert
            return
        if isinstance(objs[0], dict):
            _mutate_record(objs, 0, data)
            lines[i : i + 1] = [obj if isinstance(obj, str) else _json_line(obj)[:-1] for obj in objs]
    elif what == "path":
        quoted = data.draw(st.sampled_from(_WRITER_LINE_QUOTED)) if data.draw(st.booleans()) else json.dumps(
            data.draw(st.sampled_from(_WRITER_LINE_PATHS)), ensure_ascii=data.draw(st.booleans()))
        lines[i] = re.sub(r'"path":"(?:[^"\\]|\\.)*"', lambda m: '"path":' + quoted, line, count=1)
    elif what == "number":
        key = data.draw(st.sampled_from(["allocated_bytes", "atime", "mtime", "size_bytes"]))
        number = data.draw(st.sampled_from(_WRITER_LINE_NUMBERS))
        lines[i] = re.sub(rf'"{key}":[0-9]+', lambda m: f'"{key}":{number}', line, count=1)
    else:
        lines[i] = re.sub(r'^\{(?:"allocated_bytes":[0-9]+,)?', '{"allocated_bytes":null,', line, count=1)


def _outcome(reader, path):
    try:
        return reader(path)
    except WastekitError as exc:
        return f"error: {exc}"


class TestSnapshotReaderOracle:
    """The reader reads the writer's own record lines in one pass and any
    other line with the line-at-a-time code; its result must equal
    `naive_read_snapshot`'s, down to the error message."""

    def check(self, tmp_path, text):
        p = tmp_path / "s.snap"
        p.write_text(text, encoding="utf-8", newline="")
        got = _outcome(read_snapshot, str(p))
        assert got == _outcome(naive_read_snapshot, str(p))
        if not isinstance(got, str):
            assert all(type(rec) is FileRecord for rec in got.records)
        return got

    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_matches_oracle(self, tmp_path, data):
        objs = [_record_obj(path, data) for path in data.draw(_PATHS)]
        for _ in range(data.draw(st.integers(0, 3))):
            if objs:
                _mutate_record(objs, data.draw(st.integers(0, len(objs) - 1)), data)
        ascii_only = data.draw(st.booleans())
        lines = [obj if isinstance(obj, str) else json.dumps(obj, ensure_ascii=ascii_only) for obj in objs]
        for _ in range(data.draw(st.integers(0, 3))):
            if lines:
                _mutate_lines(lines, data.draw(st.integers(0, len(lines) - 1)), data)
        newline = data.draw(st.sampled_from(["\n", "\r\n"]))
        self.check(tmp_path, newline.join([json.dumps(_HEADER), *lines]) + data.draw(st.sampled_from(["", newline])))

    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_writer_lines_match_oracle(self, tmp_path, data):
        # The lines `json.dumps` writes above are spaced, so none is in the
        # writer's form; these start from `dump_snapshot`'s own lines.
        records = [record_from_obj(_record_obj(path, data)) for path in data.draw(_PATHS) if is_relative(path)]
        warnings = data.draw(st.lists(st.sampled_from(["w", "a\u2028b", "x\x85y"]), max_size=2))
        header, *lines = dumps(Snapshot(root="/r", taken_at=10, records=records)).split("\n")[:-1]
        if warnings:  # raw, where the writer escapes them
            header = json.dumps(_HEADER | {"warnings": warnings}, ensure_ascii=False)
        for _ in range(data.draw(st.integers(0, 3))):
            if lines:
                _mutate_writer_line(lines, data.draw(st.integers(0, len(lines) - 1)), data)
        for _ in range(data.draw(st.integers(0, 2))):
            if lines:
                _mutate_lines(lines, data.draw(st.integers(0, len(lines) - 1)), data)
        # The end of the header and of each line; a U+2028 or U+0085 ends
        # no line, and joins the two on either side of it.
        newline = data.draw(st.sampled_from(["\n", "\r\n"]))
        ends = data.draw(st.lists(st.sampled_from([newline, newline, "\u2028", "\x85" + newline]),
                                  min_size=len(lines) + 1, max_size=len(lines) + 1))
        ends[-1] = data.draw(st.sampled_from(["", newline]))
        text = header + ends[0] + "".join(line + end for line, end in zip(lines, ends[1:]))
        self.check(tmp_path, text)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["LF", "CRLF"])
    @pytest.mark.parametrize("name", ["f", "caf\u00e9", 'q"', "b\\", "t\t", "\u2028", "\U0001f600"])
    def test_writer_lines_are_read_in_one_pass(self, tmp_path, name, newline):
        # Names the writer escapes are read in the one pass too, and so are
        # CRLF line ends, which the text-mode read turns into `\n`.
        records = [make_record(path=f"d/{name}{i:04d}", allocated_bytes=4096 if i % 2 else None) for i in range(1000)]
        p = tmp_path / "s.snap"
        p.write_text(dumps(Snapshot(root="/r", taken_at=10, records=records)).replace("\n", newline), newline="")
        with mock.patch.object(scanner_mod, "_checked_record", wraps=scanner_mod._checked_record) as checked:
            assert read_snapshot(str(p)).records == records
        assert not checked.called

    def test_read_holds_one_line_at_a_time(self, tmp_path):
        # Beyond the records it returns, a read holds the file's text, one
        # line's match and the lists that check the order (1.25 times the
        # file's size here), not a list of every line (1.8) or of every
        # line's fields (4.6).
        records = [make_record(path=f"d/f{i:05d}", allocated_bytes=4096) for i in range(20_000)]
        p = tmp_path / "s.snap"
        write_snapshot(Snapshot(root="/r", taken_at=10, records=records), str(p))
        size = p.stat().st_size
        tracemalloc.start()
        try:
            snap = read_snapshot(str(p))
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(snap.records) == 20_000
        assert peak - kept < 1.5 * size

    @pytest.mark.parametrize("fault", _SINGLE_FAULTS, ids=repr)
    def test_single_fault_matches_oracle(self, tmp_path, fault):
        objs = [record_obj(make_record(path=path, allocated_bytes=4096)) for path in ("a", "b", "c")]
        key, value = fault
        if key is None:
            objs[1] = value
        elif value is _DROP:
            del objs[1][key]
        else:
            objs[1][key] = value
        lines = [obj if isinstance(obj, str) else json.dumps(obj, ensure_ascii=False) for obj in objs]
        self.check(tmp_path, "\n".join([json.dumps(_HEADER), *lines]) + "\n")

    def test_split_record_and_joined_pair_are_rejected(self, tmp_path):
        a, b, c = (json.dumps(record_obj(make_record(path=path))) for path in ("a", "b", "c"))
        cut = a.index(", ")
        lines = [a[:cut], a[cut + 2 :], b + ", " + c]
        # Parsed as one JSON array, these three lines are three valid records.
        assert len(json.loads("[" + ",".join(lines) + "]")) == 3
        got = self.check(tmp_path, "\n".join([json.dumps(_HEADER), *lines]) + "\n")
        assert got.startswith("error: ") and "line 2 is not valid JSON" in got

    def test_malformed_line_reported_before_unsorted_records(self, tmp_path):
        lines = [json.dumps(record_obj(make_record(path=path))) for path in ("b", "a")] + ['{"path": "c"}']
        got = self.check(tmp_path, "\n".join([json.dumps(_HEADER), *lines]) + "\n")
        assert "line 4: malformed file record" in got


def _retimed(line, data):
    """Line, a record line, with new numbers for its path, in the writer's
    form; line itself if it holds no object with a path."""
    try:
        obj = json.loads(line)
    except ValueError:
        return line
    if not isinstance(obj, dict) or "path" not in obj:
        return line
    return _json_line(_record_obj(obj["path"], data))[:-1]


class TestSnapshotPairReaderOracle:
    """`read_snapshot_pair` reads NEW against OLD and takes OLD's record
    for each line the two share; its result must equal two
    `naive_read_snapshot` calls, down to the error message, OLD's first."""

    def check(self, tmp_path, old_text, new_text):
        old_p, new_p = tmp_path / "old.snap", tmp_path / "new.snap"
        old_p.write_text(old_text, encoding="utf-8", newline="")
        new_p.write_text(new_text, encoding="utf-8", newline="")
        got = _outcome(lambda old: read_snapshot_pair(old, str(new_p)), str(old_p))
        assert got == _outcome(lambda old: (naive_read_snapshot(old), naive_read_snapshot(str(new_p))), str(old_p))
        if not isinstance(got, str):
            assert all(type(rec) is FileRecord for snapshot in got for rec in snapshot.records)
        return got

    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_matches_two_oracle_reads(self, tmp_path, data):
        records = [record_from_obj(_record_obj(path, data)) for path in data.draw(_PATHS) if is_relative(path)]
        header, *lines = dumps(Snapshot(root="/r", taken_at=10, records=records)).split("\n")[:-1]
        for _ in range(data.draw(st.integers(0, 2))):
            if lines:
                _mutate_writer_line(lines, data.draw(st.integers(0, len(lines) - 1)), data)
        for _ in range(data.draw(st.integers(0, 2))):
            if lines:
                _mutate_lines(lines, data.draw(st.integers(0, len(lines) - 1)), data)
        # NEW keeps some of OLD's lines, in order; it changes, drops or
        # moves the others, and adds lines before some.
        new_lines = []
        for line in lines:
            what = data.draw(st.sampled_from(["keep", "keep", "keep", "drop", "retime", "fault", "add", "move"]))
            if what == "keep":
                new_lines.append(line)
            elif what == "retime":
                new_lines.append(_retimed(line, data))
            elif what == "fault":
                new_lines.append(line)
                _mutate_writer_line(new_lines, len(new_lines) - 1, data)
            elif what == "add":
                path = data.draw(st.lists(_NAMES, min_size=1, max_size=3).map("/".join))
                new_lines += [_json_line(_record_obj(path, data))[:-1], line]
            elif what == "move":  # before the line kept last: out of path order
                new_lines.insert(max(0, len(new_lines) - 1), line)
        for _ in range(data.draw(st.integers(0, 2))):
            if new_lines:
                _mutate_lines(new_lines, data.draw(st.integers(0, len(new_lines) - 1)), data)
        texts = []
        for header_, lines_ in ((header, lines), (json.dumps(_HEADER | {"taken_at": 20}), new_lines)):
            newline = data.draw(st.sampled_from(["\n", "\r\n"]))
            texts.append(newline.join([header_, *lines_]) + data.draw(st.sampled_from(["", newline])))
        # Past this many NEW lines in a row that reuse nothing, the rest of
        # NEW is read in one pass.
        with mock.patch.object(scanner_mod, "_REUSE_MISSES", data.draw(st.sampled_from([0, 1, 2, 1024]))):
            self.check(tmp_path, *texts)

    def test_unchanged_lines_reuse_old_records(self, tmp_path):
        records = [make_record(path=f"d/f{i:04d}", allocated_bytes=4096 if i % 2 else None) for i in range(1000)]
        changed = list(records)
        changed[500] = make_record(path="d/f0500", atime=2000)
        got = self.check(tmp_path, dumps(Snapshot(root="/r", taken_at=10, records=records)),
                         dumps(Snapshot(root="/r", taken_at=20, records=changed)))
        old, new = got
        assert new.records == changed and new.records[500] is not old.records[500]
        assert all(new.records[i] is old.records[i] for i in range(1000) if i != 500)

    def test_rest_of_new_after_old_runs_out_is_read_in_one_pass(self, tmp_path):
        # Once the cursor passes OLD's last line, the rest of NEW is read in
        # one `_read_lines` pass, not a line at a time: OLD's read and that
        # pass make two calls.
        records = [make_record(path=f"d/f{i:04d}", allocated_bytes=4096) for i in range(100)]
        added = [make_record(path=f"e/f{i:04d}") for i in range(3000)]
        with mock.patch.object(scanner_mod, "_read_lines", wraps=scanner_mod._read_lines) as read_lines:
            old, new = self.check(tmp_path, dumps(Snapshot(root="/r", taken_at=10, records=records)),
                                  dumps(Snapshot(root="/r", taken_at=20, records=records + added)))
        assert read_lines.call_count <= 2
        assert new.records == records + added
        assert all(new.records[i] is old.records[i] for i in range(100))

    @pytest.mark.parametrize("share",["96%", "none", "none, paths moved"])
    def test_pair_read_holds_no_more_than_two_reads(self, tmp_path, share):
        # OLD's lines are let go as NEW passes them, or all at once when
        # NEW reuses nothing for a while, so holding them for reuse costs
        # no more than NEW's own records would.
        records = [make_record(path=f"d/f{i:05d}", allocated_bytes=4096) for i in range(20_000)]
        every = 25 if share == "96%" else 1
        parent = "c" if share == "none, paths moved" else "d"
        changed = [
            rec if i % every else make_record(path=f"{parent}/f{i:05d}", atime=rec.atime + 1, allocated_bytes=4096)
            for i, rec in enumerate(records)
        ]
        old_p, new_p = str(tmp_path / "old.snap"), str(tmp_path / "new.snap")
        write_snapshot(Snapshot(root="/r", taken_at=10, records=records), old_p)
        write_snapshot(Snapshot(root="/r", taken_at=20, records=changed), new_p)

        def peak(read):
            tracemalloc.start()
            try:
                got = read()  # noqa: F841 (held while the peak is read)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        two_reads = peak(lambda: (read_snapshot(old_p), read_snapshot(new_p)))
        assert peak(lambda: read_snapshot_pair(old_p, new_p)) <= 1.05 * two_reads


def synth_snapshot(records, taken_at=10_000_000_000, root="/syn"):
    return Snapshot(root=root, taken_at=taken_at, records=sorted(records, key=lambda r: r.path))


class TestReport:
    def test_all_recently_accessed_gives_zero_pcts(self, basic_rules):
        recs = [make_record(path=f"f{i}", mtime=100, atime=200) for i in range(5)]
        rep = report(synth_snapshot(recs), basic_rules)
        assert rep.never_accessed_files_pct == 0.0
        assert rep.never_accessed_space_pct == 0.0

    def test_percentages_count_regular_files_only(self, basic_rules):
        recs = [
            make_record(path="dir", size=0, kind=FileKind.DIRECTORY),
            make_record(path="never", size=900, mtime=100, atime=100),
            make_record(path="read", size=100, mtime=100, atime=200),
        ]
        rep = report(synth_snapshot(recs), basic_rules)
        assert rep.never_accessed_files_pct == pytest.approx(50.0)
        assert rep.never_accessed_space_pct == pytest.approx(90.0)

    def test_byte_conservation_across_categories(self, basic_rules):
        rng = random.Random(9)
        recs = []
        for i in range(200):
            ext = rng.choice(["aux", "spam", "dat", "keepme"])
            path = f"keep/{i}" if ext == "keepme" else f"f{i}.{ext}"
            recs.append(
                make_record(
                    path=path,
                    size=rng.randrange(0, 5000),
                    mtime=rng.randrange(0, 10**9),
                    atime=rng.randrange(0, 10**9),
                )
            )
        rep = report(synth_snapshot(recs), basic_rules)
        assert sum(b for _, b in rep.per_category.values()) == rep.total_bytes
        assert sum(n for n, _ in rep.per_category.values()) == rep.total_files == 200

    def test_report_is_reproducible(self, basic_rules):
        recs = [make_record(path=f"f{i}.aux", mtime=5, atime=5) for i in range(10)]
        snap = synth_snapshot(recs)
        a = json.dumps(report(snap, basic_rules).to_json_obj(), sort_keys=True)
        b = json.dumps(report(snap, basic_rules).to_json_obj(), sort_keys=True)
        assert a == b

    def test_adding_never_accessed_file_never_lowers_pct(self, basic_rules):
        recs = [make_record(path=f"f{i}", mtime=100, atime=100 + (i % 3) * 50) for i in range(30)]
        base = report(synth_snapshot(recs), basic_rules).never_accessed_files_pct
        recs.append(make_record(path="zzz_new", mtime=100, atime=100))
        grown = report(synth_snapshot(recs), basic_rules).never_accessed_files_pct
        assert grown >= base

    def test_unreliable_atime_warning(self, basic_rules):
        snap = synth_snapshot([make_record(path="f", mtime=200, atime=100)])
        snap.atime_reliable = False
        rep = report(snap, basic_rules)
        assert any("atime" in w for w in rep.warnings)


def naive_diff(old, new, rules, provider):
    """`diff` as two dicts and two whole classifications of every shared path."""
    old_by_path = {rec.path: rec for rec in old.records}
    new_by_path = {rec.path: rec for rec in new.records}
    shared = sorted(old_by_path.keys() & new_by_path.keys())
    was = {p: naive_classify(old_by_path[p], rules, old.taken_at, provider).is_waste() for p in shared}
    now = {p: naive_classify(new_by_path[p], rules, new.taken_at, provider).is_waste() for p in shared}
    return {
        "added": sorted(new_by_path.keys() - old_by_path.keys()),
        "removed": sorted(old_by_path.keys() - new_by_path.keys()),
        "became_waste": [p for p in shared if now[p] and not was[p]],
        "reactivated": [p for p in shared if was[p] and not now[p]],
    }


def naive_used(record, rules, now):
    """The Used test alone: `naive_classify` with no globs."""
    alone = RuleSet(used_threshold_secs=rules.used_threshold_secs)
    return naive_classify(record, alone, now, None) is WasteCategory.USED


_DIFF_NOW = 10_000_000_000
_DIFF_DIGESTS = [hashlib.sha256(bytes([i])).hexdigest() for i in range(2)]
# Few paths, so the two sides share many of them.
_DIFF_PATHS = ["a", "b.x", "c.y", "d.x", "k/e.x", "k/f.y", "k/g"]
# (mtime, atime): never read, read a minute before the earlier capture
# (idle only at the later one), read long ago, and copied timestamps.
_DIFF_TIMES = [
    (_DIFF_NOW - 10**8, _DIFF_NOW - 10**8),
    (_DIFF_NOW - 10**8, _DIFF_NOW - 60),
    (_DIFF_NOW - 10**8, _DIFF_NOW - 10**7),
    (_DIFF_NOW - 10**7, _DIFF_NOW - 10**8),
]
_diff_side = st.dictionaries(
    st.sampled_from(_DIFF_PATHS), st.tuples(st.sampled_from(list(FileKind)), st.sampled_from(_DIFF_TIMES))
).map(lambda recs: synth_snapshot([make_record(path=p, kind=k, mtime=m, atime=a) for p, (k, (m, a)) in recs.items()]))
_diff_digests = st.dictionaries(st.sampled_from(_DIFF_PATHS), st.sampled_from(_DIFF_DIGESTS + [None]))


def _subset(pool):
    return st.lists(st.sampled_from(pool), max_size=2, unique=True).map(tuple)


_diff_rules = st.builds(
    RuleSet,
    not_waste_globs=_subset(["k/*", "*.z", "a"]),
    unintentional_globs=_subset(["*.y", "c*", "k/g"]),
    unwanted_globs=_subset(["*.x", "b*"]),
    degraded_checks=_subset([("*.x", _DIFF_DIGESTS[0]), ("b*", _DIFF_DIGESTS[1]), ("k/*", _DIFF_DIGESTS[0])]),
)


class TestDiff:
    @settings(max_examples=300, deadline=None)
    @given(
        old=_diff_side,
        new=_diff_side,
        taken_at=st.tuples(*[st.sampled_from([_DIFF_NOW, _DIFF_NOW + 10**7])] * 2),
        rules=_diff_rules,
        digests=_diff_digests,
    )
    def test_matches_per_side_naive_classify(self, old, new, taken_at, rules, digests):
        # The snapshots may be taken at different times, and a shared path
        # may change kind. The drawn digests stand for the files as they
        # are now under the root; a None digest is an unreadable file.
        old.taken_at, new.taken_at = taken_at
        reads = []

        def drawn_digest(opener, rel, *args):
            reads.append(rel)
            return digests.get(rel)

        with mock.patch.object(TreeOpener, "digest", drawn_digest):
            got = diff(old, new, rules)
        assert got.to_json_obj() == naive_diff(old, new, rules, digests.get)
        assert len(reads) == len(set(reads))
        assert got.warnings == [DIGEST_UNREADABLE + rel for rel in reads if digests.get(rel) is None]
        # Only a shared path whose kind or Used test differs can change its
        # verdict, so no other path is read.
        old_by_path = {rec.path: rec for rec in old.records}
        new_by_path = {rec.path: rec for rec in new.records}
        for rel in reads:
            old_rec, new_rec = old_by_path[rel], new_by_path[rel]
            assert old_rec.kind is not new_rec.kind or (
                naive_used(old_rec, rules, old.taken_at) != naive_used(new_rec, rules, new.taken_at)
            )

    def test_default_provider_reads_only_files_whose_verdict_can_change(self, tmp_path, monkeypatch):
        rules = RuleSet(degraded_checks=(("*.chk", hashlib.sha256(b"ok").hexdigest()),))
        long_ago = int(time.time()) - 10**8
        for name, content in (("a.chk", b"ok"), ("b.chk", b"bad"), ("e.chk", b"ok"), ("f.chk", b"ok"), ("gone.chk", b"ok")):
            touch(tmp_path / name, content, mtime=long_ago)
        (tmp_path / "d.chk").mkdir()
        old = scan(str(tmp_path))
        # d.chk becomes a file and e.chk a directory; f.chk is read, so its
        # Used test flips; gone.chk is removed and new.chk added, so neither
        # is read. a.chk and b.chk are unchanged, so neither is read.
        (tmp_path / "d.chk").rmdir()
        touch(tmp_path / "d.chk", b"ok")
        (tmp_path / "e.chk").unlink()
        (tmp_path / "e.chk").mkdir()
        os.utime(tmp_path / "f.chk", (long_ago + 10**7, long_ago))
        (tmp_path / "gone.chk").unlink()
        touch(tmp_path / "new.chk", b"bad")
        new = scan(str(tmp_path))
        reads = []
        real_digest = TreeOpener.digest

        def counting_digest(self, rel, *args):
            reads.append(rel)
            return real_digest(self, rel, *args)

        monkeypatch.setattr(TreeOpener, "digest", counting_digest)
        churn = diff(old, new, rules)
        assert reads == ["d.chk", "e.chk", "f.chk"]
        # e.chk, a Regular file in the old snapshot, is a directory now, so
        # its digest cannot be read: Degraded then, a plain directory now.
        assert churn.warnings == [DIGEST_UNREADABLE + "e.chk"]
        assert churn.reactivated == ["e.chk"]
        # f.chk is intact, so its Used test decides.
        assert churn.became_waste == ["f.chk"]

    @pytest.mark.parametrize("paths", [["b", "a"], ["a", "a"]])
    def test_unsorted_snapshot_rejected(self, paths):
        # No such snapshot reaches `diff`: it is refused when it is made.
        with pytest.raises(WastekitError, match="not sorted/unique at 'a'"):
            Snapshot(root="/syn", taken_at=0, records=[make_record(path=p) for p in paths])

    def test_identity(self, basic_rules, tmp_path):
        touch(tmp_path / "a", b"x")
        snap = scan(str(tmp_path))
        churn = diff(snap, snap, basic_rules)
        assert churn.added == churn.removed == churn.became_waste == churn.reactivated == []

    def test_added_and_removed(self, basic_rules):
        old = synth_snapshot([make_record(path="a"), make_record(path="gone")])
        new = synth_snapshot([make_record(path="a"), make_record(path="b")])
        churn = diff(old, new, basic_rules)
        assert churn.added == ["b"]
        assert churn.removed == ["gone"]

    def test_waste_transitions(self, basic_rules):
        now = 10_000_000_000
        fresh = make_record(path="x", mtime=now - 100, atime=now - 50)
        stale = make_record(path="x", mtime=now - 10**8, atime=now - 10**7)
        old = synth_snapshot([fresh], taken_at=now)
        new = synth_snapshot([stale], taken_at=now)
        assert diff(old, new, basic_rules).became_waste == ["x"]
        assert diff(new, old, basic_rules).reactivated == ["x"]

    def test_differing_roots_rejected(self, basic_rules):
        a = synth_snapshot([], root="/a")
        b = synth_snapshot([], root="/b")
        with pytest.raises(WastekitError, match="different roots"):
            diff(a, b, basic_rules)

    def test_random_pairs_match_naive_oracle(self, basic_rules):
        rng = random.Random(0xD1FF)
        now = 10_000_000_000

        def rand_records(n):
            recs = {}
            for _ in range(n):
                name = f"p{rng.randrange(40)}.{rng.choice(['aux', 'dat', 'spam'])}"
                recs[name] = make_record(
                    path=name,
                    mtime=now - rng.randrange(1, 10**8),
                    atime=now - rng.randrange(1, 10**8),
                )
            return list(recs.values())

        for _ in range(100):
            old = synth_snapshot(rand_records(rng.randrange(0, 40)), taken_at=now)
            new = synth_snapshot(rand_records(rng.randrange(0, 40)), taken_at=now)
            got = diff(old, new, basic_rules)

            # naive O(n^2) comparison, written independently of record_map
            added = sorted(
                r.path for r in new.records if all(o.path != r.path for o in old.records)
            )
            removed = sorted(
                r.path for r in old.records if all(n.path != r.path for n in new.records)
            )
            became, reactivated = [], []
            for o in old.records:
                for n in new.records:
                    if o.path != n.path:
                        continue
                    ow = classify(o, basic_rules, now).is_waste()
                    nw = classify(n, basic_rules, now).is_waste()
                    if not ow and nw:
                        became.append(o.path)
                    elif ow and not nw:
                        reactivated.append(o.path)
            assert got == ChurnReport(added, removed, sorted(became), sorted(reactivated))
