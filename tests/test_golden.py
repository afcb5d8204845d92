"""Byte-identity gate: every subcommand's stdout, stderr and exit code on
small seeded inputs, against the expected files in `tests/golden/`.

The inputs are rebuilt for each run with fixed contents and timestamps,
and `scan` runs at a fixed `now`, so every byte of output is fixed. The
work directory is written `$WORK` in the expected files, and each
snapshot record's `allocated_bytes` (which depends on the filesystem)
`<blocks>`. Regenerate the expected files only with
`python tests/golden/regen.py`, and say why in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import random
import re
import shutil
from unittest import mock

from wastekit import cli
from wastekit.scanner import scan, write_snapshot

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
DAY = 86400
T0 = 1_700_000_000  # `now` of every scan but the old one
T_OLD = T0 - 20 * DAY  # `now` of the old snapshot that `diff` compares
SEED = 17
_ALLOCATED = re.compile(r'"allocated_bytes":\d+')


def _build_tree(dest: str, later: bool) -> None:
    """A tree with a file for each category, a symlink, names that JSON
    escapes or that sort apart from their components, and related binary
    files for `dedup`. `later` is the tree
    after the changes that `diff` finds: a file removed, one added and
    one read again."""
    rng = random.Random(SEED)
    clip = rng.randbytes(40_000)
    files = {
        "keep/notes.txt": (b"kept\n", T0 - 90 * DAY, T0 - 90 * DAY),
        "paper.aux": (rng.randbytes(700), T0 - 50 * DAY, T0 - 50 * DAY),
        "build/a.tmp": (rng.randbytes(1500), T0 - 10 * DAY, T0 - 9 * DAY),
        "empty.tmp": (b"", T0 - 5 * DAY, T0 - 5 * DAY),
        "junk.spam": (rng.randbytes(300), T0 - 70 * DAY, T0 - 70 * DAY),
        "data/good.chk": (b"good content\n", T0 - 40 * DAY, T0 - 40 * DAY),
        "data/bad.chk": (b"bit rot\n", T0 - 40 * DAY, T0 - 40 * DAY),
        "old/used1.dat": (rng.randbytes(5000), T0 - 200 * DAY, T0 - 100 * DAY),
        "aging.dat": (rng.randbytes(900), T0 - 60 * DAY, T0 - 45 * DAY),
        "fresh.dat": (rng.randbytes(120), T0 - 3 * DAY, T0 - DAY),
        "Zeta.txt": (b"upper case sorts first\n", T0 - 8 * DAY, T0 - 8 * DAY),
        "media-2/x.txt": (b"'-' sorts before '/'\n", T0 - 8 * DAY, T0 - 8 * DAY),
        "copied.dat": (rng.randbytes(64), T0 - 30 * DAY, T0 - 31 * DAY),  # atime < mtime
        "obj/unit0.o": (rng.randbytes(2500), T0 - 80 * DAY, T0 - 80 * DAY),
        "obj/unit1.o": (rng.randbytes(3100), T0 - 80 * DAY, T0 - 80 * DAY),
        'q"uote é.txt': (b"quoted\n", T0 - 35 * DAY, T0 - 33 * DAY),
        "media/clip.bin": (clip, T0 - 120 * DAY, T0 - 120 * DAY),
        "media/clip-copy.bin": (clip, T0 - 110 * DAY, T0 - 110 * DAY),
        "media/clip-edit.bin": (clip[:9000] + rng.randbytes(77) + clip[9000:], T0 - 100 * DAY, T0 - 100 * DAY),
    }
    if later:
        del files["junk.spam"]
        files["new.tmp"] = (b"new\n", T0 - 2 * DAY, T0 - 2 * DAY)
        content, mtime, _ = files["old/used1.dat"]
        files["old/used1.dat"] = (content, mtime, T0 - DAY)
    for rel, (content, mtime, atime) in files.items():
        path = os.path.join(dest, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(content)
        os.utime(path, (atime, mtime))
    for rel in {os.path.dirname(rel) for rel in files} - {""}:
        os.utime(os.path.join(dest, rel), (T0 - 6 * DAY, T0 - 7 * DAY))
    # Last, and nothing follows it: following a symlink moves its atime.
    os.symlink("fresh.dat", os.path.join(dest, "link"))
    os.utime(os.path.join(dest, "link"), (T0 - 4 * DAY, T0 - 4 * DAY), follow_symlinks=False)


def _workload(rng: random.Random) -> str:
    lines = ["# tick producer requested waste_fraction"]
    for tick in range(12):
        for pid in ("clean", "dirty", "mixed"):
            if rng.random() < 0.7:
                waste = {"clean": "0", "dirty": "3/4", "mixed": f"{rng.randint(0, 9)}/10"}[pid]
                lines.append(f"{tick} {pid} {rng.randint(10, 400)} {waste}")
    return "\n".join(lines) + "\n"


def _landfill_trace(rng: random.Random) -> str:
    keys = [f"k{i}" for i in range(12)] + ["café"]
    lines = ["# seeded ops"]
    for _ in range(120):
        roll = rng.random()
        if roll < 0.45:
            lines.append(f"PUT {rng.choice(keys)} {rng.randint(0, 700)}")
        elif roll < 0.9:
            lines.append(f"GET {rng.choice(keys)}")
        else:
            lines.append(f"ADV {rng.randint(1, 3)}")
    return "\n".join(lines) + "\n"


# Hand-written edge cases for the event lines: PUTs past and at the
# capacity of 100 (one on a live key), a same-size overwrite, runs of
# GETs (of faded and never-stored keys too), an ADV that fades every
# entry, a PUT of size 0, and keys that JSON escapes: a quote, a
# backslash, a non-ASCII and an astral character.
_EDGE_TRACE = """\
# edges
PUT big 101
PUT full 100
GET full
GET full
GET big
PUT q"uote 30
PUT back\\slash 30
PUT caf\u00e9 20
PUT \U0001f600 20
PUT q"uote 30
GET q"uote
GET back\\slash
GET caf\u00e9
GET \U0001f600
PUT caf\u00e9 101
ADV 1
GET caf\u00e9
GET caf\u00e9
ADV 2
GET q"uote
GET caf\u00e9
GET caf\u00e9
ADV 5
GET caf\u00e9
GET \U0001f600
GET full
PUT caf\u00e9 0
GET caf\u00e9
GET caf\u00e9
"""


# Edge cases for `recover`'s buckets, every record waste under
# `unwanted_globs: ["*"]`: names whose dots lead, trail or repeat, a
# dotted directory, upper-case and non-ASCII extensions (`İ` lowers to
# two characters); sizes 0 to 3, around powers of two and past 2**64;
# ages in the future and a second either side of each day edge. Every
# other name sits in a dotted directory, so that names are read both
# with and without a `/` before them.
_EDGE_NAMES = (
    ".bashrc", "a.", "...", "..a.b", "noext", ".hidden.TXT", "a.tar.GZ", "x.\u0130", "caf\u00e9.\u00c9T\u00c9",
    "a...", ".a.", "a..b", "UPPER.C", "trail..", "d.d", "dot.d.x.y", "x.y z", "\u00e9",
)
_EDGE_SIZES = (0, 1, 2, 3, 4, 5, 7, 8, 9, 1023, 1024, 1025, 2**32 - 1, 2**32 + 1, 2**63, 2**64 - 1, 2**64 + 1, 3 * 2**70)
_EDGE_AGES = (
    -DAY, -1, 0,
    *(edge * DAY + delta for edge in (1, 7, 30, 90, 365) for delta in (-1, 0, 1)),
)


def _recover_edges_snapshot() -> str:
    records = []
    for i, (name, size, age) in enumerate(zip(_EDGE_NAMES, _EDGE_SIZES, _EDGE_AGES, strict=True)):
        path = name if i % 2 == 0 else f"d{i:02d}.d/{name}"
        records.append((path, T0 - age, size))
    lines = [f'{{"format": "wastekit-snapshot-v1", "root": "/r", "taken_at": {T0}}}\n']
    for path, mtime, size in sorted(records):
        lines.append(
            f'{{"atime":{mtime},"kind":"Regular","mtime":{mtime},"path":{json.dumps(path)},"size_bytes":{size}}}\n'
        )
    return "".join(lines)


# One wrong line in each malformed trace, after a comment, a blank line
# and a valid line, so that its error names line 4.
_LONG = "9" * 5000  # past Python's digit limit for str-to-int
_BAD_OPS = {
    "unknown_op": "DEL a",
    "put_no_size": "PUT a",
    "put_size_x": "PUT a x",
    "put_size_negative": "PUT a -1",
    "adv_0": "ADV 0",
    "put_size_long": f"PUT a {_LONG}",
}
_BAD_WORKLOAD = {
    "three_fields": "1 a 5",
    "tick_x": "x a 5 0",
    "requested_negative": "1 a -5 0",
    "fraction_1_5": "1 a 5 1.5",
    "tick_long": f"{_LONG} a 5 0",
    "fraction_long": f"1 a 5 0.{_LONG}",
}


def _snap_line(path: str, mtime_days: int, atime_days: int, size: int) -> str:
    """A record line in the writer's form, its times in days before T0."""
    return (f'{{"atime":{T0 - atime_days * DAY},"kind":"Regular","mtime":{T0 - mtime_days * DAY},'
            f'"path":{json.dumps(path)},"size_bytes":{size}}}')


# Pairs of snapshots whose NEW shares most of its lines with OLD, byte for
# byte. NEW changes one record in place (b.dat, read again), drops c.tmp
# and adds c2.dat, and holds a blank line and CRLF line ends; d.dat's
# unchanged line turns idle at NEW's later capture time.
_SHARED_HEADER = '{{"format": "wastekit-snapshot-v1", "root": "/r", "taken_at": {}}}'
_SHARED_OLD = [
    _snap_line("a.dat", 200, 100, 10), _snap_line("b.dat", 200, 100, 20), _snap_line("c.tmp", 30, 30, 30),
    _snap_line("d.dat", 200, 45, 40), _snap_line("keep/x.txt", 90, 90, 50),
]
_SHARED_NEW = [
    _SHARED_OLD[0], "", _snap_line("b.dat", 200, 1, 20), _snap_line("c2.dat", 2, 2, 60), *_SHARED_OLD[3:],
]
# Shared lines in other forms: a path the writer escapes, hand-spaced keys
# and a raw non-ASCII path. Only f.dat changes; the three others turn idle.
_ESCAPED_OLD = [
    _snap_line("caf\u00e9.dat", 200, 45, 10),
    json.dumps({"atime": T0 - 45 * DAY, "kind": "Regular", "mtime": T0 - 200 * DAY, "path": "e.dat", "size_bytes": 5}),
    _snap_line("f.dat", 200, 100, 7),
    json.dumps({"atime": T0 - 45 * DAY, "kind": "Regular", "mtime": T0 - 200 * DAY, "path": "g\u00e9.dat",
                "size_bytes": 3}, ensure_ascii=False),
]
_ESCAPED_NEW = [*_ESCAPED_OLD[:2], _snap_line("f.dat", 200, 1, 7), _ESCAPED_OLD[3]]
# OLD's lines with b.dat changed in place, then records after OLD's last
# path; the last line has no final `\n`.
_APPENDED_NEW = [
    _SHARED_OLD[0], _snap_line("b.dat", 200, 1, 20), *_SHARED_OLD[2:], _snap_line("keep/y.txt", 90, 90, 70),
    _snap_line("z.tmp", 60, 60, 80), _snap_line("zz.dat", 2, 2, 90),
]


def build_inputs(work: str) -> dict[str, str]:
    """Build every input under `work`; returns the paths by name."""
    paths = {name: os.path.join(work, name) for name in ("tree", "exec-json", "exec-table")}
    _build_tree(paths["tree"], later=False)
    paths["old.snap"] = os.path.join(work, "old.snap")
    write_snapshot(scan(paths["tree"], now=T_OLD), paths["old.snap"])
    # The later tree, rebuilt in place of the earlier one.
    shutil.rmtree(paths["tree"])
    _build_tree(paths["tree"], later=True)
    paths["new.snap"] = os.path.join(work, "new.snap")
    write_snapshot(scan(paths["tree"], now=T0), paths["new.snap"])
    # Two more copies for `plan --execute`, each with one planned file
    # changed after its scan, so that its deletion is skipped: one grown,
    # one replaced by a directory.
    for name in ("exec-json", "exec-table"):
        _build_tree(paths[name], later=True)
        paths[f"{name}.snap"] = os.path.join(work, f"{name}.snap")
        write_snapshot(scan(paths[name], now=T0), paths[f"{name}.snap"])
    with open(os.path.join(paths["exec-json"], "paper.aux"), "ab") as fh:
        fh.write(b"grown")
    os.unlink(os.path.join(paths["exec-table"], "empty.tmp"))
    os.mkdir(os.path.join(paths["exec-table"], "empty.tmp"))
    # Two trees of one checked file, scanned as the two trees above and
    # deleted after both scans: its Used test is the same in both
    # snapshots ("check-same"), or flips between them ("check-flip").
    for name in ("check-same", "check-flip"):
        checked = os.path.join(work, name, "data", "good.chk")
        os.makedirs(os.path.dirname(checked))
        with open(checked, "wb") as fh:
            fh.write(b"good content\n")
        os.utime(checked, (T0 - 40 * DAY, T0 - 40 * DAY))
        paths[f"{name}-old.snap"] = os.path.join(work, f"{name}-old.snap")
        write_snapshot(scan(os.path.join(work, name), now=T_OLD), paths[f"{name}-old.snap"])
        if name == "check-flip":
            os.utime(checked, (T0 - 35 * DAY, T0 - 40 * DAY))  # read since its write, idle at T0
        paths[f"{name}-new.snap"] = os.path.join(work, f"{name}-new.snap")
        write_snapshot(scan(os.path.join(work, name), now=T0), paths[f"{name}-new.snap"])
        os.unlink(checked)
    good = hashlib.sha256(b"good content\n").hexdigest()
    bad = hashlib.sha256(b"not the content\n").hexdigest()
    files = {
        "rules.json": (
            '{"not_waste_globs": ["keep/*"], "unintentional_globs": ["*.aux", "*.tmp", "*.o"], '
            '"unwanted_globs": ["*.spam"], "degraded_checks": ['
            f'{{"glob": "data/good.chk", "sha256": "{good}"}}, {{"glob": "data/bad.chk", "sha256": "{bad}"}}], '
            f'"used_threshold_secs": {30 * DAY}}}\n'
        ),
        "zero-threshold-rules.json": '{"used_threshold_secs": 0}\n',
        "masks.json": (
            '{"rules": [{"glob": "*.o", "reduce_ok": true}, {"glob": "old/*", "reuse_ok": true, "recover_ok": true}, '
            '{"glob": "*.aux", "recycle_ok": true}], "default": {"recover_ok": true}}\n'
        ),
        "unsorted.snap": (
            '{"format": "wastekit-snapshot-v1", "root": "/r", "taken_at": 10}\n'
            '{"atime":1,"kind":"Regular","mtime":1,"path":"b","size_bytes":1}\n'
            '{"atime":1,"kind":"Regular","mtime":1,"path":"a","size_bytes":1}\n'
        ),
        # Lines in the writer's exact form, mixed with valid lines in other
        # forms: hand-spaced, keys reordered, a path the writer escapes, and
        # a blank line.
        "mixed-lines.snap": (
            f'{{"format": "wastekit-snapshot-v1", "root": "/r", "taken_at": {T0}}}\n'
            f'{{"allocated_bytes":4096,"atime":{T0 - 50 * DAY},"kind":"Regular","mtime":{T0 - 50 * DAY},'
            '"path":"a.aux","size_bytes":700}\n'
            f'{{"atime": {T0 - 70 * DAY}, "kind": "Regular", "mtime": {T0 - 70 * DAY}, "path": "b.spam", '
            '"size_bytes": 300}\n'
            f'{{"atime":{T0 - 9 * DAY},"kind":"Regular","mtime":{T0 - 10 * DAY},"path":"caf\\u00e9.tmp",'
            '"size_bytes":1500}\n'
            "\n"
            f'{{"path":"d/e.o","size_bytes":2500,"kind":"Regular","mtime":{T0 - 80 * DAY},"atime":{T0 - 80 * DAY}}}\n'
            f'{{"atime":{T0 - 6 * DAY},"kind":"Directory","mtime":{T0 - 7 * DAY},"path":"keep","size_bytes":0}}\n'
            f'{{"allocated_bytes":4096,"atime":{T0 - 90 * DAY},"kind":"Regular","mtime":{T0 - 90 * DAY},'
            '"path":"keep/notes.txt","size_bytes":5}\n'
            f'{{"atime":{T0 - DAY},"kind":"Regular","mtime":{T0 - 3 * DAY},"path":"z.dat","size_bytes":120}}\n'
        ),
        "recover-edges.snap": _recover_edges_snapshot(),
        # A record whose path holds a raw U+2028, which JSON allows in a string.
        "line-separator.snap": (
            f'{{"format": "wastekit-snapshot-v1", "root": "/r", "taken_at": {T0}}}\n'
            f'{{"atime": {T0 - 9 * DAY}, "kind": "Regular", "mtime": {T0 - 10 * DAY}, "path": "a\u2028b.tmp", '
            '"size_bytes": 1500}\n'
        ),
        "shared-old.snap": "\n".join([_SHARED_HEADER.format(T_OLD), *_SHARED_OLD]) + "\n",
        "shared-new.snap": "\r\n".join([_SHARED_HEADER.format(T0), *_SHARED_NEW]) + "\r\n",
        # Three lines shared with shared-old.snap, then a record with no size
        # on line 5.
        "shared-malformed.snap": "\n".join([
            _SHARED_HEADER.format(T0), *_SHARED_OLD[:3], '{"atime":1,"kind":"Regular","mtime":1,"path":"c1.dat"}',
            *_SHARED_OLD[3:],
        ]) + "\n",
        # shared-old.snap's lines, b.dat after c.tmp.
        "shared-unsorted.snap": "\n".join([
            _SHARED_HEADER.format(T0), _SHARED_OLD[0], _SHARED_OLD[2], _SHARED_OLD[1], *_SHARED_OLD[3:],
        ]) + "\n",
        "escaped-old.snap": "\n".join([_SHARED_HEADER.format(T_OLD), *_ESCAPED_OLD]) + "\n",
        "escaped-new.snap": "\n".join([_SHARED_HEADER.format(T0), *_ESCAPED_NEW]) + "\n",
        "appended-new.snap": "\n".join([_SHARED_HEADER.format(T0), *_APPENDED_NEW]),
        # A header and no record lines, with no final `\n`.
        "header-only.snap": _SHARED_HEADER.format(T0),
        "all-unwanted-rules.json": '{"unwanted_globs": ["*"]}\n',
        "workload.trace": _workload(random.Random(SEED)),
        "ops.trace": _landfill_trace(random.Random(SEED)),
        "log-is-trace.trace": _landfill_trace(random.Random(SEED)),
        "edge.trace": _EDGE_TRACE,
        "comment-only.workload": "# tick producer requested waste_fraction\n",
        **{f"bad-{name}.trace": f"# malformed\n\nPUT a 1\n{line}\n" for name, line in _BAD_OPS.items()},
        **{f"bad-{name}.workload": f"# malformed\n\n0 a 5 0\n{line}\n" for name, line in _BAD_WORKLOAD.items()},
    }
    for name, text in files.items():
        paths[name] = os.path.join(work, name)
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    for name in ("ops.log", "scan-table.snap", "scan-json.snap", os.path.join("missing", "ops.log")):
        paths[name] = os.path.join(work, name)
    return paths


def cases(p: dict[str, str]) -> dict[str, list[str]]:
    """Each case's argv, by the name of its expected file."""
    rules = ["--rules", p["rules.json"]]
    penalty = ["penalty-sim", "--trace", p["workload.trace"], "--alpha", "1/2", "--bandwidth", "350", "--ticks", "16"]
    landfill = ["landfill", "--trace", p["ops.trace"], "--capacity", "1500", "--fade", "2"]
    edges = ["landfill", "--trace", p["edge.trace"], "--capacity", "100", "--fade", "2"]
    return {
        "scan_stdout": ["scan", p["tree"]],
        "scan_table": ["scan", p["tree"], "-o", p["scan-table.snap"]],
        "scan_json": ["--format", "json", "scan", p["tree"], "-o", p["scan-json.snap"]],
        "scan_exclude": ["scan", p["tree"], "--exclude", "media/*", "--exclude", "*.o"],
        "report_table": ["report", p["new.snap"], *rules],
        "report_json": ["--format", "json", "report", p["new.snap"], *rules],
        "report_old_json": ["--format", "json", "report", p["old.snap"], *rules],
        "report_unsorted": ["report", p["unsorted.snap"], *rules],
        "report_mixed_lines_json": ["--format", "json", "report", p["mixed-lines.snap"], *rules],
        "report_line_separator_json": ["--format", "json", "report", p["line-separator.snap"], *rules],
        "report_header_only": ["report", p["header-only.snap"], *rules],
        "diff_table": ["diff", p["old.snap"], p["new.snap"], *rules],
        "diff_table_v": ["-v", "diff", p["old.snap"], p["new.snap"], *rules],
        "diff_json": ["--format", "json", "diff", p["old.snap"], p["new.snap"], *rules],
        "diff_self_json": ["--format", "json", "diff", p["new.snap"], p["new.snap"], *rules],
        "diff_check_same_json": ["--format", "json", "diff", p["check-same-old.snap"], p["check-same-new.snap"], *rules],
        "diff_check_flip_json": ["--format", "json", "diff", p["check-flip-old.snap"], p["check-flip-new.snap"], *rules],
        # NEW read against an OLD it shares most lines with.
        "diff_shared_json": ["--format", "json", "diff", p["shared-old.snap"], p["shared-new.snap"], *rules],
        "diff_shared_table_v": ["-v", "diff", p["shared-old.snap"], p["shared-new.snap"], *rules],
        "diff_shared_malformed": ["diff", p["shared-old.snap"], p["shared-malformed.snap"], *rules],
        "diff_shared_unsorted": ["diff", p["shared-old.snap"], p["shared-unsorted.snap"], *rules],
        "diff_shared_escaped_json": ["--format", "json", "diff", p["escaped-old.snap"], p["escaped-new.snap"], *rules],
        "diff_appended_json": ["--format", "json", "diff", p["shared-old.snap"], p["appended-new.snap"], *rules],
        "plan_table": ["plan", p["new.snap"], *rules],
        "plan_table_v": ["-v", "plan", p["new.snap"], *rules, "--masks", p["masks.json"]],
        "plan_json": ["--format", "json", "plan", p["new.snap"], *rules],
        "plan_json_masks_slc": [
            "--format", "json", "plan", p["new.snap"], *rules, "--masks", p["masks.json"],
            "--device", "SLC", "--endurance", "5000", "--erase-block", "4096",
        ],
        "plan_table_other": ["plan", p["new.snap"], *rules, "--device", "other", "--erase-block", "1000"],
        "plan_no_yes": ["plan", p["exec-json.snap"], *rules, "--execute"],
        "plan_execute_json": ["--format", "json", "plan", p["exec-json.snap"], *rules, "--execute", "--yes"],
        "plan_execute_table": ["plan", p["exec-table.snap"], *rules, "--execute", "--yes"],
        "landfill": landfill,
        "landfill_log": [*landfill, "--log", p["ops.log"]],
        # A log in a directory that does not exist, and a log that names
        # the trace itself.
        "landfill_log_unwritable": [*landfill, "--log", p[os.path.join("missing", "ops.log")]],
        "landfill_log_is_trace": [
            *landfill[:2], p["log-is-trace.trace"], *landfill[3:], "--log", p["log-is-trace.trace"],
        ],
        "landfill_no_refresh": [*landfill, "--no-refresh-on-read"],
        "landfill_edges": edges,
        "landfill_edges_no_refresh": [*edges, "--no-refresh-on-read"],
        "penalty_table": penalty,
        "penalty_table_v": ["-v", *penalty, "--weight", "clean=2", "--weight", "mixed=1/3"],
        "penalty_json": ["--format", "json", *penalty, "--weight", "dirty=3/2"],
        "penalty_alpha0_json": ["--format", "json", *penalty[:4], "0", *penalty[5:]],
        "penalty_alpha_long": [*penalty[:4], f"1/{_LONG}", *penalty[5:]],
        "penalty_alpha_negative": [*penalty[:3], "--alpha=-1/2", *penalty[5:]],
        "dedup_dir_table": ["dedup", p["tree"]],
        "dedup_dir_json": ["--format", "json", "dedup", p["tree"]],
        "dedup_snapshot_json": ["--format", "json", "dedup", p["new.snap"], "--target-chunk", "3000"],
        "dedup_snapshot_table": ["dedup", p["new.snap"], "--min-chunk", "512", "--target-chunk", "1024",
                                 "--max-chunk", "4096", "--window", "16"],
        "recover": ["recover", p["new.snap"], *rules],
        "recover_old": ["--format", "json", "recover", p["old.snap"], *rules],
        "recover_edges": ["--format", "json", "recover", p["recover-edges.snap"], "--rules", p["all-unwanted-rules.json"]],
        # A config number below 1, for each subcommand that takes one.
        "scan_workers_0": ["scan", p["tree"], "--workers", "0"],
        "landfill_capacity_0": [*landfill[:4], "0", *landfill[5:]],
        "landfill_fade_0": [*landfill[:6], "0"],
        "landfill_capacity_long": [*landfill[:4], _LONG, *landfill[5:]],
        "penalty_bandwidth_0": [*penalty[:6], "0", *penalty[7:]],
        "penalty_ticks_0": [*penalty[:8], "0"],
        "plan_erase_block_0": ["plan", p["new.snap"], *rules, "--erase-block", "0"],
        "plan_endurance_0": ["plan", p["new.snap"], *rules, "--endurance", "0"],
        "dedup_target_chunk_0": ["dedup", p["new.snap"], "--target-chunk", "0"],
        "dedup_window_0": ["dedup", p["new.snap"], "--window", "0"],
        "report_threshold_0": ["report", p["new.snap"], "--rules", p["zero-threshold-rules.json"]],
        # A malformed trace of each format.
        **{f"landfill_trace_{name}": [*landfill[:2], p[f"bad-{name}.trace"], *landfill[3:]] for name in _BAD_OPS},
        # A trace that is not a regular file, and a workload of no events.
        "landfill_trace_not_regular": [*landfill[:2], os.devnull, *landfill[3:]],
        "penalty_trace_comment_only": [*penalty[:2], p["comment-only.workload"], *penalty[3:]],
        # A trace error and a config error at once: the trace error wins.
        "landfill_trace_bad_capacity_0": [*landfill[:2], p["bad-put_size_x.trace"], landfill[3], "0", *landfill[5:]],
        **{f"penalty_trace_{name}": [*penalty[:2], p[f"bad-{name}.workload"], *penalty[3:]] for name in _BAD_WORKLOAD},
    }


# The tree each `plan --execute --yes` case deletes from.
_EXECUTED_TREE = {"plan_execute_json": "exec-json", "plan_execute_table": "exec-table"}
# The file each `landfill --log` case names as its log, shown after the run.
_LOG = {"landfill_log": "ops.log", "landfill_log_is_trace": "log-is-trace.trace"}


def _listing(root: str) -> str:
    out = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            out.append(os.path.relpath(os.path.join(dirpath, name), root) + "\n")
    return "".join(out)


def render_all(work: str) -> dict[str, str]:
    """Build the inputs under `work`, run every case through `cli.run`,
    and return the text of each expected file by case name."""
    paths = build_inputs(work)
    out = {}
    # The CLI's `scan` runs at the fixed time, for `scan` and `dedup DIR`.
    with mock.patch.object(cli, "scan", functools.partial(scan, now=T0)):
        for name, argv in cases(paths).items():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.run(argv)
            text = f"exit: {code}\n--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}"
            if name in _LOG:
                with open(paths[_LOG[name]], encoding="utf-8") as fh:
                    text += f"--- log\n{fh.read()}"
            if name in _EXECUTED_TREE:
                text += f"--- files left\n{_listing(paths[_EXECUTED_TREE[name]])}"
            text = text.replace(work, "$WORK")
            out[name] = _ALLOCATED.sub('"allocated_bytes":<blocks>', text)
    return out


def test_outputs_match_golden_files(tmp_path):
    work = str(tmp_path)
    got = render_all(work)
    expected_names = sorted(name[:-4] for name in os.listdir(GOLDEN_DIR) if name.endswith(".txt"))
    assert expected_names == sorted(got), "cases and expected files differ; see tests/golden/regen.py"
    for name in expected_names:
        with open(os.path.join(GOLDEN_DIR, name + ".txt"), encoding="utf-8", newline="") as fh:
            assert got[name] == fh.read(), f"output of case {name} differs from tests/golden/{name}.txt"
