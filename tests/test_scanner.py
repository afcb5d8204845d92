"""Filesystem walking, snapshot persistence, reports, and diffs."""

import io
import json
import os
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from wastekit.errors import WastekitError
from wastekit.model import FileKind, FileRecord, RuleSet, WasteCategory, classify
from wastekit.scanner import (
    ChurnReport,
    ScanOptions,
    Snapshot,
    diff,
    dump_snapshot,
    read_snapshot,
    report,
    scan,
    write_snapshot,
)

from conftest import make_record
from naive_snapshot import naive_read_snapshot


def touch(path, content=b"", mtime=None, atime=None):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(content)
    if mtime is not None:
        os.utime(path, times=(atime if atime is not None else mtime, mtime))


def dumps(snapshot):
    buf = io.StringIO()
    dump_snapshot(snapshot, buf)
    return buf.getvalue()


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
        import wastekit.scanner as scanner_mod

        original = scanner_mod._list_names

        def flaky(abspath):
            if abspath.endswith("locked"):
                return None, "Permission denied (simulated)"
            return original(abspath)

        monkeypatch.setattr(scanner_mod, "_list_names", flaky)
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
        record = make_record(path="placeholder").to_json_obj() | {"path": path}
        p.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
        if ok:
            assert read_snapshot(str(p)).records[0].path == path
        else:
            with pytest.raises(WastekitError, match="line 2: record path"):
                read_snapshot(str(p))

    def test_rejects_unsorted_records(self):
        snap = Snapshot(root="/r", taken_at=10, records=[make_record(path="b"), make_record(path="a")])
        with pytest.raises(WastekitError, match="sorted"):
            snap.validate()


_HEADER = {"format": "wastekit-snapshot-v1", "root": "/r", "taken_at": 10}
_NAMES = st.text(alphabet="ab.", min_size=1, max_size=3)
_PATHS = st.lists(st.lists(_NAMES, min_size=1, max_size=3).map("/".join), max_size=6, unique=True).map(sorted)
# A raw U+2028 or U+0085 ends a line for `str.splitlines`, so a path
# holding one splits its record in two.
_BAD_PATHS = ["../x", "/abs", "a/../b", "a/./b", "a//b", "a/", ".", "..", "", 5, None, "a\u2028b", "a\x85b"]
_ODD_NUMBERS = [True, False, 1.5, -1, None, "7", 2**70]  # all but 2**70 are rejected
_NOT_OBJECTS = ["[1, 2]", "5", '"s"', "null", "{}", "[]", "{", "x"]
_DROP = "<dropped>"
# (key, value) put into one record of three; key None replaces the whole line.
_SINGLE_FAULTS = (
    [(key, value) for key in ("size_bytes", "mtime", "atime", "allocated_bytes") for value in _ODD_NUMBERS]
    + [(key, _DROP) for key in ("path", "size_bytes", "mtime", "atime", "kind", "allocated_bytes")]
    + [("kind", value) for value in ("Weird", "regular", [], {}, None, 1)]
    + [("path", value) for value in _BAD_PATHS + ["...", "a\\b", ".hidden", "b"]]
    + [(None, text) for text in _NOT_OBJECTS + [" " + json.dumps(make_record(path="b").to_json_obj()) + " "]]
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
        obj["path"] = data.draw(st.sampled_from(_BAD_PATHS + ["...", "a\\b", ".hidden"]))
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


def _outcome(reader, path):
    try:
        return reader(path)
    except WastekitError as exc:
        return f"error: {exc}"


class TestSnapshotReaderOracle:
    """The reader checks each line's fields inline and falls back to the
    line-at-a-time code for any line that fails; its result must equal
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

    @pytest.mark.parametrize("fault", _SINGLE_FAULTS, ids=repr)
    def test_single_fault_matches_oracle(self, tmp_path, fault):
        objs = [make_record(path=path, allocated_bytes=4096).to_json_obj() for path in ("a", "b", "c")]
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
        a, b, c = (json.dumps(make_record(path=path).to_json_obj()) for path in ("a", "b", "c"))
        cut = a.index(", ")
        lines = [a[:cut], a[cut + 2 :], b + ", " + c]
        # Parsed as one JSON array, these three lines are three valid records.
        assert len(json.loads("[" + ",".join(lines) + "]")) == 3
        got = self.check(tmp_path, "\n".join([json.dumps(_HEADER), *lines]) + "\n")
        assert got.startswith("error: ") and "line 2 is not valid JSON" in got

    def test_malformed_line_reported_before_unsorted_records(self, tmp_path):
        lines = [json.dumps(make_record(path=path).to_json_obj()) for path in ("b", "a")] + ['{"path": "c"}']
        got = self.check(tmp_path, "\n".join([json.dumps(_HEADER), *lines]) + "\n")
        assert "line 4: malformed file record" in got


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


class TestDiff:
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
