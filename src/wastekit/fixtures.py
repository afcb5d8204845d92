"""Synthetic tree builder for desk-scale measurements and tests.

`build_never_accessed_tree` constructs a tree whose never-accessed-file
and never-accessed-space percentages hit exact targets.
"""

from __future__ import annotations

import os

ACCESS_GAP_SECS = 7 * 86400  # atime lead for "accessed" files


def _split_bytes(total: int, parts: int) -> list[int]:
    """Deterministic integer split: floor share plus remainder up front."""
    if parts == 0:
        return []
    base, extra = divmod(total, parts)
    return [base + 1 if i < extra else base for i in range(parts)]


def build_never_accessed_tree(
    dest: str,
    files_pct: float,
    space_pct: float,
    total_files: int = 1000,
    byte_unit: int = 64,
    base_time: int = 1_600_000_000,
) -> None:
    """Build a tree where exactly `files_pct` percent of files (and
    `space_pct` percent of bytes) have never been read since last write.

    Percentages must land on integers given `total_files` files and a
    per-mille byte budget; never-read files get atime == mtime, the rest
    get atime > mtime.
    """
    never_files_exact = total_files * files_pct / 100.0
    never_files = round(never_files_exact)
    if abs(never_files - never_files_exact) > 1e-9:
        raise ValueError(f"files_pct {files_pct} is not exact over {total_files} files")
    space_permille = round(space_pct * 10)
    if abs(space_permille - space_pct * 10) > 1e-9:
        raise ValueError(f"space_pct {space_pct} needs at most one decimal place")

    accessed_files = total_files - never_files
    never_bytes = space_permille * byte_unit
    accessed_bytes = (1000 - space_permille) * byte_unit

    os.makedirs(dest, exist_ok=True)
    never_sizes = _split_bytes(never_bytes, never_files)
    accessed_sizes = _split_bytes(accessed_bytes, accessed_files)

    idx = 0
    for size in never_sizes:
        path = os.path.join(dest, f"f{idx:06d}.dat")
        with open(path, "wb") as fh:
            fh.write(b"x" * size)
        os.utime(path, (base_time, base_time))
        idx += 1
    for size in accessed_sizes:
        path = os.path.join(dest, f"f{idx:06d}.dat")
        with open(path, "wb") as fh:
            fh.write(b"x" * size)
        os.utime(path, (base_time + ACCESS_GAP_SECS, base_time))
        idx += 1
