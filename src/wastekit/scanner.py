"""Filesystem scanning, snapshot persistence, waste reports, and diffs.

The scanner is strictly read-only: it stats and lists, never modifies.
Snapshots are persisted as line-delimited JSON (one header object, then
one record object per line, sorted by path) so they stream, diff, and
survive manual inspection.
"""

from __future__ import annotations

import json
import operator
import os
import stat
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import compress, repeat

from ._version import __version__
from .errors import WastekitError
from .model import (
    DigestProvider,
    FileKind,
    FileRecord,
    GlobSet,
    RuleSet,
    WasteCategory,
    classify,
    sha256_file,
)

SNAPSHOT_FORMAT = "wastekit-snapshot-v1"


@dataclass(frozen=True)
class ScanOptions:
    follow_symlinks: bool = False
    one_filesystem: bool = False
    exclude_globs: tuple[str, ...] = ()
    workers: int = 1

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass
class Snapshot:
    """A persisted scan: root, capture time, and sorted file records."""

    root: str
    taken_at: int
    records: list[FileRecord]
    atime_reliable: bool = True
    warnings: list[str] = field(default_factory=list)

    def validate(self) -> None:
        prev = None
        for rec in self.records:
            if prev is not None and rec.path <= prev:
                raise WastekitError(f"snapshot records not sorted/unique at {rec.path!r}")
            prev = rec.path


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
    for rec in snapshot.records:
        fh.write(_json_line(rec.to_json_obj()))


_KIND_BY_VALUE = {kind.value: kind for kind in FileKind}


def _is_relative(rel: str) -> bool:
    # Framed in slashes, an absolute path or an empty, '.' or '..'
    # component shows as '//', '/./' or '/../'. `scan` never writes
    # one, and `plan --execute` must not follow one out of the root.
    framed = f"/{rel}/"
    return "//" not in framed and "/./" not in framed and "/../" not in framed


def _checked_record(path: str, lineno: int, line: str) -> FileRecord | None:
    """The record on one snapshot line, or None for a blank line; raises
    a WastekitError naming the file and line if the line is malformed."""
    if not line.strip():
        return None
    try:
        rec = FileRecord.from_json_obj(json.loads(line))
    except json.JSONDecodeError as exc:
        raise WastekitError(f"snapshot {path} line {lineno} is not valid JSON: {exc}") from exc
    except WastekitError as exc:
        raise WastekitError(f"snapshot {path} line {lineno}: {exc}") from exc
    if type(rec.path) is not str or not _is_relative(rec.path):
        raise WastekitError(f"snapshot {path} line {lineno}: record path {rec.path!r} must be relative, "
                            "with no empty, '.' or '..' component")
    return rec


def read_snapshot(path: str) -> Snapshot:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise WastekitError(f"cannot read snapshot {path}: {exc}") from exc
    if not lines:
        raise WastekitError(f"snapshot {path} is empty")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise WastekitError(f"snapshot {path} header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != SNAPSHOT_FORMAT:
        raise WastekitError(f"{path} is not a {SNAPSHOT_FORMAT} file")
    root, taken_at = header.get("root"), header.get("taken_at")
    atime_reliable, warnings = header.get("atime_reliable", True), header.get("warnings", [])
    if not (isinstance(root, str) and type(taken_at) is int and type(atime_reliable) is bool and type(warnings) is list):
        raise WastekitError(f"snapshot {path} header needs a string 'root', an integer 'taken_at', "
                            "and optionally a boolean 'atime_reliable' and a 'warnings' list")
    # Each line is decoded and checked on its own, inline. A line that
    # fails any check goes through `_checked_record`, which skips a blank
    # line or raises the error that names it.
    records = []
    append = records.append
    decode = json.JSONDecoder().raw_decode
    kinds = _KIND_BY_VALUE
    new_tuple = tuple.__new__
    for i, line in enumerate(lines[1:], start=2):
        try:
            obj, end = decode(line)
            rel, size, mtime, atime = obj["path"], obj["size_bytes"], obj["mtime"], obj["atime"]
            kind, allocated = kinds[obj["kind"]], obj.get("allocated_bytes")
        except (ValueError, KeyError, TypeError):
            end = -1
        if (
            end == len(line)
            and type(size) is int
            and type(mtime) is int
            and type(atime) is int
            and (allocated is None or type(allocated) is int)
            and size >= 0
            and mtime >= 0
            and atime >= 0
            and type(rel) is str
            and _is_relative(rel)
        ):
            append(new_tuple(FileRecord, (rel, size, mtime, atime, kind, allocated)))
        else:
            rec = _checked_record(path, i, line)
            if rec is not None:
                append(rec)
    snap = Snapshot(
        root=root,
        taken_at=taken_at,
        records=records,
        atime_reliable=atime_reliable,
        warnings=list(warnings),
    )
    snap.validate()
    return snap


def _list_names(abspath: str):
    try:
        with os.scandir(abspath) as it:
            return sorted(e.name for e in it), None
    except OSError as exc:
        return None, str(exc)


def scan(root: str, options: ScanOptions | None = None, *, now: int | None = None) -> Snapshot:
    """Walk `root` and build a Snapshot of everything underneath it.

    Regular files carry logical size plus allocated size; directories
    contribute structure but zero bytes; symlinks are recorded and never
    followed unless `follow_symlinks`. Unreadable subtrees are skipped
    with a warning (a partial snapshot is valid); a missing root is
    fatal. Hardlinked inodes are kept once, under their lexicographically
    smallest path. Output is independent of `workers`.
    """
    opts = options or ScanOptions()
    root_abs = os.path.abspath(root)
    if not os.path.isdir(root_abs):
        raise WastekitError(f"scan root does not exist or is not a directory: {root}")
    taken_at = int(time.time()) if now is None else int(now)

    try:
        root_st = os.lstat(root_abs)
        with os.scandir(root_abs):
            pass
    except OSError as exc:
        raise WastekitError(f"scan root is not readable: {root}: {exc}") from exc
    root_dev = root_st.st_dev

    warnings: list[str] = []
    collected: list[tuple[FileRecord, tuple | None]] = []  # (record, hardlink inode key)
    visited_dirs = {(root_st.st_dev, root_st.st_ino)}
    clamped_times = 0
    excluded = GlobSet(opts.exclude_globs).matches

    def make_record(rel, st, kind, size, allocated=None):
        nonlocal clamped_times
        mtime, atime = int(st.st_mtime), int(st.st_atime)
        if mtime < 0 or atime < 0:
            clamped_times += 1
            mtime, atime = max(0, mtime), max(0, atime)
        return FileRecord(
            path=rel, size_bytes=size, mtime=mtime, atime=atime, kind=kind, allocated_bytes=allocated
        )

    pool = ThreadPoolExecutor(max_workers=opts.workers) if opts.workers > 1 else None
    try:
        level = [("", root_abs)]
        while level:
            level.sort(key=lambda item: item[0])
            dirs = [ab for _, ab in level]
            if pool is not None:
                listings = list(pool.map(_list_names, dirs))
            else:
                listings = [_list_names(ab) for ab in dirs]
            next_level = []
            for (rel, ab), (names, err) in zip(level, listings):
                if err is not None:
                    warnings.append(f"unreadable directory skipped: {rel or '.'}: {err}")
                    continue
                for name in names:
                    child_rel = f"{rel}/{name}" if rel else name
                    if opts.exclude_globs and excluded(child_rel):
                        continue
                    child_ab = os.path.join(ab, name)
                    try:
                        st_info = os.lstat(child_ab)
                    except OSError as exc:
                        warnings.append(f"unreadable entry skipped: {child_rel}: {exc}")
                        continue
                    if opts.follow_symlinks and stat.S_ISLNK(st_info.st_mode):
                        try:
                            st_info = os.stat(child_ab)
                        except OSError:
                            warnings.append(f"broken symlink recorded unfollowed: {child_rel}")
                    mode = st_info.st_mode
                    if stat.S_ISLNK(mode):
                        collected.append((make_record(child_rel, st_info, FileKind.SYMLINK, st_info.st_size), None))
                    elif stat.S_ISDIR(mode):
                        collected.append((make_record(child_rel, st_info, FileKind.DIRECTORY, 0), None))
                        key = (st_info.st_dev, st_info.st_ino)
                        if key not in visited_dirs and (not opts.one_filesystem or st_info.st_dev == root_dev):
                            visited_dirs.add(key)
                            next_level.append((child_rel, child_ab))
                    elif stat.S_ISREG(mode):
                        ikey = (st_info.st_dev, st_info.st_ino) if st_info.st_nlink > 1 else None
                        alloc = getattr(st_info, "st_blocks", None)
                        collected.append(
                            (
                                make_record(
                                    child_rel, st_info, FileKind.REGULAR, st_info.st_size,
                                    alloc * 512 if alloc is not None else None,
                                ),
                                ikey,
                            )
                        )
                    else:
                        collected.append((make_record(child_rel, st_info, FileKind.OTHER, 0), None))
            level = next_level
    finally:
        if pool is not None:
            pool.shutdown(wait=False)

    if clamped_times:
        warnings.append(f"negative timestamps clamped to 0 on {clamped_times} entr(ies)")

    collected.sort(key=lambda pair: pair[0].path)
    records: list[FileRecord] = []
    seen_inodes: set[tuple] = set()
    dropped_links = 0
    for rec, ikey in collected:
        if ikey is not None:
            if ikey in seen_inodes:
                dropped_links += 1
                continue
            seen_inodes.add(ikey)
        records.append(rec)
    if dropped_links:
        warnings.append(f"hardlink duplicates skipped: {dropped_links}")

    future = sum(1 for r in records if r.mtime > taken_at or r.atime > taken_at)
    if future:
        warnings.append(f"future timestamps on {future} entr(ies)")
    atime_reliable = not any(r.atime < r.mtime for r in records if r.kind is FileKind.REGULAR)

    return Snapshot(
        root=root_abs,
        taken_at=taken_at,
        records=records,
        atime_reliable=atime_reliable,
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


def snapshot_digest_provider(snapshot: Snapshot, failures: list[str] | None = None) -> DigestProvider:
    """Provider resolving record paths against the snapshot root."""

    def provider(rel_path: str) -> str | None:
        digest = sha256_file(os.path.join(snapshot.root, rel_path))
        if digest is None and failures is not None:
            failures.append(rel_path)
        return digest

    return provider


def classify_snapshot(
    snapshot: Snapshot, rules: RuleSet, digest_provider: DigestProvider | None = None
) -> tuple[list[WasteCategory], list[str]]:
    """Classify every record at the snapshot's own capture time, so a
    stored snapshot always classifies the same way. Returns the categories
    in record order, and the paths the default provider, which reads files
    under the snapshot root, could not read for a degraded check."""
    digest_failures: list[str] = []
    if digest_provider is None:
        digest_provider = snapshot_digest_provider(snapshot, digest_failures)
    now = snapshot.taken_at
    categories = [classify(rec, rules, now, digest_provider) for rec in snapshot.records]
    return categories, digest_failures


def report(snapshot: Snapshot, rules: RuleSet, digest_provider: DigestProvider | None = None) -> WasteReport:
    """Classify every record and aggregate Table-style waste figures."""
    categories, digest_failures = classify_snapshot(snapshot, rules, digest_provider)
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
    for path in digest_failures:
        warnings.append(f"digest unreadable, file counted Degraded: {path}")

    return WasteReport(
        total_files=len(snapshot.records),
        total_bytes=sum(sizes),
        never_accessed_files_pct=(100.0 * never_files / reg_files) if reg_files else 0.0,
        never_accessed_space_pct=(100.0 * never_bytes / reg_bytes) if reg_bytes else 0.0,
        per_category=per_category,
        warnings=warnings,
    )


@dataclass
class ChurnReport:
    """Path-level changes between two snapshots of the same root."""

    added: list[str]
    removed: list[str]
    became_waste: list[str]
    reactivated: list[str]

    def to_json_obj(self) -> dict:
        return {
            "added": self.added,
            "removed": self.removed,
            "became_waste": self.became_waste,
            "reactivated": self.reactivated,
        }


def diff(
    old: Snapshot,
    new: Snapshot,
    rules: RuleSet,
    old_digest_provider: DigestProvider | None = None,
    new_digest_provider: DigestProvider | None = None,
) -> ChurnReport:
    """Set-diff two snapshots and track NotWaste <-> waste transitions.

    Each snapshot is classified at its own capture time. Both snapshots
    must share the same root.
    """
    if old.root != new.root:
        raise WastekitError(f"snapshots have different roots: {old.root!r} vs {new.root!r}")
    old_paths = {rec.path for rec in old.records}
    new_paths = {rec.path for rec in new.records}
    shared = old_paths & new_paths
    old_waste = _waste_by_path(old, shared, rules, old_digest_provider)
    new_waste = _waste_by_path(new, shared, rules, new_digest_provider)
    shared_sorted = sorted(shared)
    return ChurnReport(
        added=sorted(new_paths - old_paths),
        removed=sorted(old_paths - new_paths),
        became_waste=[path for path in shared_sorted if new_waste[path] and not old_waste[path]],
        reactivated=[path for path in shared_sorted if old_waste[path] and not new_waste[path]],
    )


def _waste_by_path(
    snapshot: Snapshot, paths: set[str], rules: RuleSet, digest_provider: DigestProvider | None
) -> dict[str, bool]:
    """Whether each record under `paths` is waste. Only those are classified,
    so no digest is read from a removed file."""
    kept = replace(snapshot, records=[rec for rec in snapshot.records if rec.path in paths])
    categories, _ = classify_snapshot(kept, rules, digest_provider)
    return {rec.path: cat.is_waste() for rec, cat in zip(kept.records, categories)}
