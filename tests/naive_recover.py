"""Reference Recover summary: the bucket helpers and the per-record loop
as first written, with a Python-level `os.path` split, a scan of the age
edges and `setdefault` per key. The oracle that `wastekit.scanner`'s
table-lookup version is compared against."""

from __future__ import annotations

import os

from wastekit.scanner import RecoverSummary, classify_snapshot

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


def recover_summary(snapshot: Snapshot, rules: RuleSet) -> RecoverSummary:
    categories, warnings = classify_snapshot(snapshot, rules)
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
        warnings=warnings,
    )
