"""Path-at-a-time reference for `scan`.

Each directory is listed by path with `os.scandir`, and each entry is
stat'ed with `os.lstat(os.path.join(...))` and built through the
checking `FileRecord` constructor, as the scanner did before it opened
one fd per directory and stat'ed entries relative to it. This is the
behavioral oracle the fast walker is compared against: for any tree it
must give equal records, warnings and `atime_reliable`.

Listing a directory by path moves its atime on a relatime mount, so run
the scan under test before this one.
"""

import os
import stat
import time
from concurrent.futures import ThreadPoolExecutor

from wastekit.errors import WastekitError
from wastekit.model import FileKind, FileRecord, GlobSet
from wastekit.scanner import ScanOptions, Snapshot


def _list_names(abspath):
    try:
        with os.scandir(abspath) as it:
            return sorted(e.name for e in it), None
    except OSError as exc:
        return None, str(exc)


def naive_scan(root, options=None, *, now=None):
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

    warnings = []
    collected = []  # (record, hardlink inode key)
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
    records = []
    seen_inodes = set()
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
