"""Filesystem scanning, snapshot persistence, waste reports, anonymized
waste summaries (Recover), and diffs.

The scanner is strictly read-only: it stats and lists, never modifies,
and it lists directories with O_NOATIME wherever the caller owns them,
so their atimes stay as they were.
Snapshots are persisted as line-delimited JSON (one header object, then
one record object per line, sorted by path) so they stream, diff, and
survive manual inspection. A line ends where a line trace's does, at
`\n`, `\r\n` or `\r`; a raw U+2028 or U+0085 is part of the line.
"""

from __future__ import annotations

import json
import operator
import os
import re
import time
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import compress, repeat
from json.encoder import encode_basestring_ascii
from os import stat_result
from stat import S_ISDIR, S_ISLNK, S_ISREG

from ._version import __version__
from .errors import WastekitError, open_input, require_int, shown
from .model import (
    FileKind,
    FileRecord,
    GlobSet,
    RuleSet,
    TreeOpener,
    WasteCategory,
    atime_moved_warning,
    classify,
    is_idle,
    is_relative,
    open_noatime,
    parse_json,
    rule_category,
    sha256_file,
)

SNAPSHOT_FORMAT = "wastekit-snapshot-v1"
DIGEST_UNREADABLE = "digest unreadable, file counted Degraded: "  # then the path


@dataclass(frozen=True)
class ScanOptions:
    follow_symlinks: bool = False
    one_filesystem: bool = False
    exclude_globs: tuple[str, ...] = ()
    workers: int = 1  # checked, and has no effect: the walk runs on the calling thread

    def __post_init__(self):
        require_int(self.workers, "workers")


@dataclass
class Snapshot:
    """A persisted scan: an absolute root, capture time, and file records
    sorted by path with no path twice. `validate` checks the fields when
    one is made; call it again after changing one."""

    root: str
    taken_at: int
    records: list[FileRecord]
    atime_reliable: bool = True
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        root, taken_at, atime_reliable, warnings = self.root, self.taken_at, self.atime_reliable, self.warnings
        if not (isinstance(root, str) and os.path.isabs(root) and type(taken_at) is int
                and type(atime_reliable) is bool and type(warnings) is list and all(type(w) is str for w in warnings)):
            raise WastekitError("snapshot needs an absolute path root, an integer taken_at, a boolean atime_reliable "
                                f"and a list of str warnings, got {shown(root)}, {shown(taken_at)}, "
                                f"{shown(atime_reliable)} and {shown(warnings)}")
        paths = list(map(_BY_PATH, self.records))
        for path in compress(paths[1:], map(operator.ge, paths, paths[1:])):
            raise WastekitError(f"snapshot records not sorted/unique at {path!r}")


_WRITE_BATCH = 4096


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def write_snapshot(snapshot: Snapshot, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        dump_snapshot(snapshot, fh)


def dump_snapshot(snapshot: Snapshot, fh) -> None:
    fh.write(
        _json_line(
            {
                "format": SNAPSHOT_FORMAT,
                "root": snapshot.root,
                "taken_at": snapshot.taken_at,
                "tool_version": __version__,
                "atime_reliable": snapshot.atime_reliable,
                "warnings": snapshot.warnings,
            }
        )
    )
    # Each record line is one f-string, the bytes `_json_line` gives for
    # the record's fields (the kind by its value, `allocated_bytes` left
    # out when None): keys in `sort_keys` order, the integers that
    # `FileRecord` ensures, and the path quoted by the C function
    # `json.dumps` uses (a kind's value needs no quoting). Lines are
    # written in batches, so no more than one batch is held at a time.
    quote = encode_basestring_ascii
    records = snapshot.records
    for start in range(0, len(records), _WRITE_BATCH):
        lines = []
        append = lines.append
        for path, size, mtime, atime, kind, allocated in records[start : start + _WRITE_BATCH]:
            if allocated is None:
                append(f'{{"atime":{atime},"kind":"{kind._value_}","mtime":{mtime},"path":{quote(path)},"size_bytes":{size}}}\n')
            else:
                append(
                    f'{{"allocated_bytes":{allocated},"atime":{atime},"kind":"{kind._value_}","mtime":{mtime},'
                    f'"path":{quote(path)},"size_bytes":{size}}}\n'
                )
        fh.write("".join(lines))


_KIND_BY_VALUE = {kind.value: kind for kind in FileKind}
# A record line as `dump_snapshot` writes it (integers of at most 19 digits,
# a path of printable ASCII and JSON escapes), or else any other line: in
# multiline mode each `\n`-line is one match, in order.
_NUMBER = "(0|[1-9][0-9]{0,18})"
_PLAIN = r"[ !#-\[\]-~]*"
_RECORD_LINES = re.compile(
    rf'^(?:\{{(?:"allocated_bytes":{_NUMBER},)?"atime":{_NUMBER},"kind":"({"|".join(_KIND_BY_VALUE)})",'
    rf'"mtime":{_NUMBER},"path":"({_PLAIN}(?:\\(?:["\\/bfnrt]|u[0-9a-fA-F]{{4}}){_PLAIN})*)",'
    rf'"size_bytes":{_NUMBER}\}}|.*)$',
    re.MULTILINE,
)


def _checked_record(path: str, lineno: int, line: str) -> FileRecord:
    """The record on snapshot line `lineno`; raises a WastekitError naming
    the file and line if it is malformed."""
    where = f"snapshot {path} line {lineno}"
    obj = parse_json(line, where)
    try:
        return FileRecord(obj["path"], obj["size_bytes"], obj["mtime"], obj["atime"], FileKind(obj["kind"]),
                          obj.get("allocated_bytes"))
    except (KeyError, ValueError, TypeError) as exc:
        raise WastekitError(f"{where}: malformed file record: {exc}") from exc


def _read_lines(path: str, text: str, pos: int, lineno: int, records: list[FileRecord], endpos: int) -> None:
    """Append the records on the lines of `text[pos:endpos]`, the first of
    them snapshot line `lineno`, to `records`. One match per `\n`-line,
    held one at a time. A line in the writer's form is read from its
    groups, its path unescaped if need be. Any other line that is not
    blank, or one whose path `is_relative` refuses, goes through
    `_checked_record`."""
    append = records.append
    kinds = _KIND_BY_VALUE
    new_tuple = tuple.__new__
    for lineno, match in enumerate(_RECORD_LINES.finditer(text, pos, endpos), lineno):
        allocated, atime, kind, mtime, rel, size = match.groups()
        if kind:
            if "\\" in rel:
                rel = json.decoder.scanstring(rel + '"', 0)[0]
            if is_relative(rel):
                append(new_tuple(FileRecord, (rel, int(size), int(mtime), int(atime), kinds[kind],
                                              int(allocated) if allocated else None)))
                continue
        if (line := match[0]).strip():
            append(_checked_record(path, lineno, line))


# Past this many lines in a row that reuse no old record, `_read` stops its
# cursor: two snapshots that share few lines then cost about what two reads
# cost, in time and in memory.
_REUSE_MISSES = 1024


def _read(path: str, old_lines: list[str | None], old_records: list[FileRecord]) -> tuple[Snapshot, str]:
    """The snapshot at `path`, and its text with a final `\n`, read against
    `old_lines`, the record lines of `old_records`. A line byte-identical
    to the old line at the cursor gets that old record, the same object;
    any other is decoded, and the cursor moves past every old path up to
    its path. Old lines are let go as the cursor passes them, and the rest
    where it stops: at the text's end, past the last old line, or after
    `_REUSE_MISSES` lines in a row that reuse nothing. The rest of the
    text is then read in one `_read_lines` pass."""
    with open_input(path, "snapshot") as fh:
        text = fh.read()
    if not text:
        raise WastekitError(f"snapshot {path} is empty")
    # The text-mode read turned `\r\n` and `\r` into `\n`, and with a final
    # `\n` every line ends at one.
    if not text.endswith("\n"):
        text += "\n"
    end = text.find("\n")
    header = parse_json(text[:end], f"snapshot {path} header")
    if not isinstance(header, dict) or header.get("format") != SNAPSHOT_FORMAT:
        raise WastekitError(f"{path} is not a {SNAPSHOT_FORMAT} file")
    try:
        snapshot = Snapshot(header.get("root"), header.get("taken_at"), [], header.get("atime_reliable", True),
                            header.get("warnings", []))
    except WastekitError:
        raise WastekitError(f"snapshot {path} header needs an absolute path 'root', an integer 'taken_at', "
                            "and optionally a boolean 'atime_reliable' and a 'warnings' list") from None
    records = snapshot.records
    append, startswith, find = records.append, text.startswith, text.find
    size, old_count = len(text), len(old_lines)
    pos, lineno = end + 1, 2
    cursor = misses = 0
    while pos < size and cursor < old_count:
        line = old_lines[cursor]
        end = pos + len(line)
        if startswith(line, pos) and startswith("\n", end):
            append(old_records[cursor])
            old_lines[cursor] = None
            cursor += 1
            misses = 0
        else:
            misses += 1
            if misses > _REUSE_MISSES:
                break
            end = find("\n", pos)
            count = len(records)
            _read_lines(path, text, pos, lineno, records, end)
            if len(records) > count:
                new_path = records[-1][0]
                while cursor < old_count and old_records[cursor][0] <= new_path:
                    old_lines[cursor] = None
                    cursor += 1
        pos = end + 1
        lineno += 1
    old_lines.clear()
    _read_lines(path, text, pos, lineno, records, size - 1)
    snapshot.validate()
    return snapshot, text


def read_snapshot(path: str) -> Snapshot:
    return _read(path, [], [])[0]


def read_snapshot_pair(old_path: str, new_path: str) -> tuple[Snapshot, Snapshot]:
    """Read OLD, then NEW against OLD's record lines (see `_read`): what
    `read_snapshot` gives for each, errors included, OLD's first. A pair
    read holds little more than two `read_snapshot` calls."""
    old, text = _read(old_path, [], [])
    # OLD's record lines, in record order: every line but the header and
    # the blank ones. OLD's text goes before NEW's is read.
    lines = list(filter(str.strip, text.split("\n")))
    del lines[0], text
    return old, _read(new_path, lines, old.records)[0]


# Listing a directory reads it, so it is opened with O_NOATIME where the
# caller owns it (see `open_noatime`); its entries are stat'ed through the
# same fd.
_DIR_OPEN_FLAGS = os.O_RDONLY | os.O_DIRECTORY | os.O_CLOEXEC
_BY_NAME = operator.attrgetter("name")
_BY_PATH = operator.itemgetter(0)


def _read_dir(ab: str, follow_symlinks: bool):
    """List one directory and stat each entry relative to its fd.

    Returns (pairs, error, atime_kept). `pairs` holds (name, stat result
    or OSError) sorted by name; with `follow_symlinks`, a symlink whose
    target exists carries the target's stat. `error` is the text of the
    error that kept the directory from being listed, else None.
    """
    try:
        fd, atime_kept = open_noatime(ab, _DIR_OPEN_FLAGS)
    except OSError as exc:
        return None, str(exc), True
    try:
        with os.scandir(fd) as it:
            entries = sorted(it, key=_BY_NAME)
        pairs = []
        append = pairs.append
        for entry in entries:
            try:
                st = entry.stat(follow_symlinks=False)
            except OSError as exc:
                # Named by its full path, as a path-based lstat names it.
                append((entry.name, OSError(exc.errno, exc.strerror, os.path.join(ab, entry.name))))
                continue
            if follow_symlinks and S_ISLNK(st.st_mode):
                try:
                    st = entry.stat()
                except OSError:
                    pass  # still the link's own stat: the caller warns
            append((entry.name, st))
    except OSError as exc:
        return None, str(OSError(exc.errno, exc.strerror, ab)), atime_kept
    finally:
        os.close(fd)
    return pairs, None, atime_kept


def scan(root: str, options: ScanOptions | None = None, *, now: int | None = None) -> Snapshot:
    """Walk `root` and build a Snapshot of everything underneath it.

    Regular files carry logical size plus allocated size; directories
    contribute structure but zero bytes; symlinks are recorded and never
    followed unless `follow_symlinks`. Unreadable subtrees are skipped
    with a warning (a partial snapshot is valid); a missing root is
    fatal. Hardlinked inodes are kept once, under their lexicographically
    smallest path. `workers` is accepted and has no effect. Directories
    are listed without moving their atimes wherever the caller owns them.
    """
    opts = options or ScanOptions()
    root_abs = os.path.abspath(root)
    if not os.path.isdir(root_abs):
        raise WastekitError(f"scan root does not exist or is not a directory: {root}")
    taken_at = int(time.time()) if now is None else int(now)

    try:
        root_st = os.lstat(root_abs)
    except OSError as exc:
        raise WastekitError(f"scan root is not readable: {root}: {exc}") from exc
    root_dev = root_st.st_dev

    warnings: list[str] = []
    records: list[FileRecord] = []
    append = records.append
    new_record = tuple.__new__
    regular, directory, symlink, other = FileKind.REGULAR, FileKind.DIRECTORY, FileKind.SYMLINK, FileKind.OTHER
    # Regular files with more than one link: path -> inode key.
    linked: dict[str, tuple] = {}
    visited_dirs = {(root_st.st_dev, root_st.st_ino)}
    clamped_times = future = atime_before_mtime = atime_moved_dirs = 0
    follow, one_filesystem = opts.follow_symlinks, opts.one_filesystem
    excluded = GlobSet(opts.exclude_globs).matches if opts.exclude_globs else None

    level = [("", root_abs)]
    while level:
        level.sort(key=_BY_PATH)
        next_level = []
        for rel, ab in level:
            pairs, err, atime_kept = _read_dir(ab, follow)
            if not atime_kept:
                atime_moved_dirs += 1
            if err is not None:
                if not rel:
                    raise WastekitError(f"scan root is not readable: {root}: {err}")
                warnings.append(f"unreadable directory skipped: {rel}: {err}")
                continue
            prefix = f"{rel}/" if rel else ""
            for name, st in pairs:
                child_rel = prefix + name
                if excluded is not None and excluded(child_rel):
                    continue
                if type(st) is not stat_result:
                    warnings.append(f"unreadable entry skipped: {child_rel}: {st}")
                    continue
                mode = st.st_mode
                mtime, atime = int(st.st_mtime), int(st.st_atime)
                if mtime < 0 or atime < 0:
                    clamped_times += 1
                    mtime, atime = max(0, mtime), max(0, atime)
                if mtime > taken_at or atime > taken_at:
                    future += 1
                if S_ISREG(mode):
                    if atime < mtime:
                        atime_before_mtime += 1
                    if st.st_nlink > 1:
                        linked[child_rel] = (st.st_dev, st.st_ino)
                    append(new_record(FileRecord, (child_rel, st.st_size, mtime, atime, regular, st.st_blocks * 512)))
                elif S_ISDIR(mode):
                    append(new_record(FileRecord, (child_rel, 0, mtime, atime, directory, None)))
                    key = (st.st_dev, st.st_ino)
                    if key not in visited_dirs and (not one_filesystem or st.st_dev == root_dev):
                        visited_dirs.add(key)
                        next_level.append((child_rel, os.path.join(ab, name)))
                elif S_ISLNK(mode):
                    if follow:
                        warnings.append(f"broken symlink recorded unfollowed: {child_rel}")
                    append(new_record(FileRecord, (child_rel, st.st_size, mtime, atime, symlink, None)))
                else:
                    append(new_record(FileRecord, (child_rel, 0, mtime, atime, other, None)))
        level = next_level

    if clamped_times:
        warnings.append(f"negative timestamps clamped to 0 on {clamped_times} entr(ies)")

    records.sort(key=_BY_PATH)
    if linked:
        # Each inode is kept under its smallest path; the rest are dropped,
        # along with their share of the tallies above.
        smallest: dict[tuple, str] = {}
        for path in sorted(linked):
            smallest.setdefault(linked[path], path)
        dropped = linked.keys() - set(smallest.values())
        if dropped:
            kept = []
            for rec in records:
                if rec.path in dropped:
                    future -= rec.mtime > taken_at or rec.atime > taken_at
                    atime_before_mtime -= rec.atime < rec.mtime
                else:
                    kept.append(rec)
            records = kept
            warnings.append(f"hardlink duplicates skipped: {len(dropped)}")

    if future:
        warnings.append(f"future timestamps on {future} entr(ies)")
    if atime_moved_dirs:
        warnings.append(atime_moved_warning(atime_moved_dirs))

    return Snapshot(
        root=root_abs,
        taken_at=taken_at,
        records=records,
        atime_reliable=not atime_before_mtime,
        warnings=warnings,
    )


@dataclass
class WasteReport:
    """Aggregate waste figures for one snapshot.

    The never-accessed percentages are computed over regular files only
    (directories and symlinks have no meaningful f-lifetime); the
    per-category tallies cover every record.
    """

    total_files: int
    total_bytes: int
    never_accessed_files_pct: float
    never_accessed_space_pct: float
    per_category: dict[WasteCategory, tuple[int, int]]  # category -> (files, bytes)
    warnings: list[str] = field(default_factory=list)

    def to_json_obj(self) -> dict:
        return {
            "total_files": self.total_files,
            "total_bytes": self.total_bytes,
            "never_accessed_files_pct": self.never_accessed_files_pct,
            "never_accessed_space_pct": self.never_accessed_space_pct,
            "per_category": {
                cat.value: {"files": files, "bytes": nbytes}
                for cat, (files, nbytes) in self.per_category.items()
            },
            "warnings": self.warnings,
        }


@contextmanager
def snapshot_digest_provider(snapshot: Snapshot, warnings: list[str] | None = None):
    """A provider reading record paths under the snapshot root, for the
    length of the `with`. `warnings`, if given, gets one
    `DIGEST_UNREADABLE` line per unreadable path and, when the `with`
    exits, one line counting the reads that moved atimes, if any did."""
    with TreeOpener(snapshot.root) as files:

        def provider(rel_path: str) -> str | None:
            # `sha256_file` is looked up here on each call: perfbench's
            # tracer wraps it in this module.
            digest = files.digest(rel_path, sha256_file)
            if digest is None and warnings is not None:
                warnings.append(DIGEST_UNREADABLE + rel_path)
            return digest

        yield provider
    if files.atime_moved and warnings is not None:
        warnings.append(atime_moved_warning(files.atime_moved))


def classify_snapshot(snapshot: Snapshot, rules: RuleSet) -> tuple[list[WasteCategory], list[str]]:
    """Classify every record at the snapshot's own capture time, so a
    stored snapshot always classifies the same way. Returns the categories
    in record order, and the warnings about the files that degraded
    checks read under the snapshot root (see `snapshot_digest_provider`)."""
    warnings: list[str] = []
    now = snapshot.taken_at
    with snapshot_digest_provider(snapshot, warnings) as provider:
        categories = [classify(rec, rules, now, provider) for rec in snapshot.records]
    return categories, warnings


def report(snapshot: Snapshot, rules: RuleSet) -> WasteReport:
    """Classify every record and aggregate Table-style waste figures."""
    categories, read_warnings = classify_snapshot(snapshot, rules)
    sizes = [rec.size_bytes for rec in snapshot.records]
    # Tallied a category at a time: keying a dict by category in the
    # per-record loop would call Enum.__hash__, which is Python code.
    per_category = {
        cat: (categories.count(cat), sum(compress(sizes, map(operator.is_, categories, repeat(cat)))))
        for cat in WasteCategory
    }
    reg_files = reg_bytes = 0
    never_files = never_bytes = 0
    for rec in snapshot.records:
        if rec.kind is FileKind.REGULAR:
            reg_files += 1
            reg_bytes += rec.size_bytes
            if rec.atime <= rec.mtime:  # f_lifetime(rec) == 0
                never_files += 1
                never_bytes += rec.size_bytes

    warnings = list(snapshot.warnings)
    if not snapshot.atime_reliable:
        warnings.append("atime may be unreliable: some files have atime < mtime (copied timestamps or noatime mount)")
    warnings += read_warnings

    return WasteReport(
        total_files=len(snapshot.records),
        total_bytes=sum(sizes),
        never_accessed_files_pct=(100.0 * never_files / reg_files) if reg_files else 0.0,
        never_accessed_space_pct=(100.0 * never_bytes / reg_bytes) if reg_bytes else 0.0,
        per_category=per_category,
        warnings=warnings,
    )


AGE_BUCKET_LABELS = ("0-1d", "1-7d", "7-30d", "30-90d", "90-365d", "365d+")
# Upper edges in seconds: whole days below an edge are the seconds below it.
_AGE_BUCKET_EDGES_SECS = tuple(days * 86400 for days in (1, 7, 30, 90, 365))


def size_bucket_label(size: int) -> str:
    """Power-of-two bucket, labeled by its inclusive upper bound."""
    if size <= 0:
        return "0"
    return str(1 << (size - 1).bit_length())


def age_bucket_label(age_secs: int) -> str:
    """A negative age (an mtime after the snapshot) is in `0-1d`."""
    return AGE_BUCKET_LABELS[bisect_right(_AGE_BUCKET_EDGES_SECS, age_secs)]


def extension_token(path: str) -> str:
    """Final extension of the basename, lowercased; '' when absent, as
    `os.path.splitext` gives it: dots that lead the name start none.
    This is the only fragment of the original name that may appear in
    a summary."""
    name = path[path.rfind("/") + 1 :].lstrip(".")
    dot = name.rfind(".")
    return name[dot + 1 :].lower() if dot >= 0 else ""


@dataclass
class RecoverSummary:
    """Structural view of a snapshot's waste: what kinds, sizes and ages
    of files pile up, with all identifying detail stripped so the
    summary can be shared. `warnings` holds the warnings about the files
    it read (see `snapshot_digest_provider`); they name paths, so they
    are not in the JSON."""

    extension_histogram: dict
    size_histogram: dict
    age_histogram: dict
    waste_files: int
    waste_bytes: int
    warnings: list[str] = field(default_factory=list)

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


def recover_summary(snapshot: Snapshot, rules: RuleSet) -> RecoverSummary:
    categories, warnings = classify_snapshot(snapshot, rules)
    not_waste = WasteCategory.NOT_WASTE
    taken_at = snapshot.taken_at
    ext_hist: dict[str, list] = {}
    size_hist: dict[str, list] = {}
    age_hist: dict[str, list] = {}
    # Size labels by the bit length of size - 1, their exponent; size 0
    # has the key -1, as its bit length is size 2's.
    size_labels: dict[int, str] = {}
    for record, category in zip(snapshot.records, categories):
        if category is not_waste:
            continue
        size = record.size_bytes
        bits = (size - 1).bit_length() if size else -1
        if (size_label := size_labels.get(bits)) is None:
            size_label = size_labels[bits] = size_bucket_label(size)
        for hist, key in (
            (ext_hist, extension_token(record.path)),
            (size_hist, size_label),
            (age_hist, age_bucket_label(taken_at - record.mtime)),
        ):
            if (slot := hist.get(key)) is None:
                hist[key] = slot = [0, 0]
            slot[0] += 1
            slot[1] += size
    return RecoverSummary(
        extension_histogram={k: tuple(v) for k, v in ext_hist.items()},
        size_histogram={k: tuple(v) for k, v in size_hist.items()},
        age_histogram={k: tuple(v) for k, v in age_hist.items()},
        waste_files=sum(files for files, _ in size_hist.values()),
        waste_bytes=sum(size for _, size in size_hist.values()),
        warnings=warnings,
    )


@dataclass
class ChurnReport:
    """Path-level changes between two snapshots of the same root.
    `warnings` holds the warnings about the files it read (see
    `snapshot_digest_provider`); they are not in the JSON."""

    added: list[str]
    removed: list[str]
    became_waste: list[str]
    reactivated: list[str]
    warnings: list[str] = field(default_factory=list)

    def to_json_obj(self) -> dict:
        return {
            "added": self.added,
            "removed": self.removed,
            "became_waste": self.became_waste,
            "reactivated": self.reactivated,
        }


def diff(old: Snapshot, new: Snapshot, rules: RuleSet) -> ChurnReport:
    """Set-diff two snapshots and track NotWaste <-> waste transitions.

    One merge pass over the two record lists, sorted by path and unique
    as each `Snapshot` is. Both snapshots must share the same root. Each
    shared path is classified at each snapshot's own capture time, but
    only the Used test depends on it. When both records have the same
    kind, one category `c` serves both sides: a side is waste if its Used
    test passes when `c` is None, else if `c.is_waste()`. So the path can
    move only if `c` is None and the two Used tests differ, and
    `rule_category` runs only when they differ. A degraded check reads
    the file as it is now under that root, so a checked file is read, and
    warned about, only when its kind or Used test differs between the
    snapshots.
    """
    if old.root != new.root:
        raise WastekitError(f"snapshots have different roots: {old.root!r} vs {new.root!r}")
    old_paths, new_paths = list(map(_BY_PATH, old.records)), list(map(_BY_PATH, new.records))
    churn = ChurnReport([], [], [], [])
    i = j = 0
    with snapshot_digest_provider(new, churn.warnings) as provider:
        while i < len(old_paths) and j < len(new_paths):
            path, new_path = old_paths[i], new_paths[j]
            if path < new_path:
                churn.removed.append(path)
                i += 1
            elif new_path < path:
                churn.added.append(new_path)
                j += 1
            else:
                old_rec, new_rec = old.records[i], new.records[j]
                i += 1
                j += 1
                was_waste = is_idle(old_rec, rules, old.taken_at)
                is_waste = is_idle(new_rec, rules, new.taken_at)
                if old_rec.kind is new_rec.kind:
                    if was_waste == is_waste or rule_category(old_rec, rules, provider) is not None:
                        continue
                else:
                    old_category = rule_category(old_rec, rules, provider)
                    new_category = rule_category(new_rec, rules, provider)
                    was_waste = was_waste if old_category is None else old_category.is_waste()
                    is_waste = is_waste if new_category is None else new_category.is_waste()
                if is_waste and not was_waste:
                    churn.became_waste.append(path)
                elif was_waste and not is_waste:
                    churn.reactivated.append(path)
    churn.removed += old_paths[i:]
    churn.added += new_paths[j:]
    return churn
