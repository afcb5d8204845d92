"""Per-pattern reference for the compiled glob engine.

Deliberately dumb: every pattern goes through `fnmatch` on its own, one
at a time. This is the behavioral oracle that `GlobSet` (one
alternation regex per group) and `classify` are compared against.
"""

import fnmatch
import posixpath

from wastekit.model import FileKind, WasteCategory, f_lifetime


def path_matches(path, pattern):
    """Case-sensitive glob match against the full path or its basename."""
    if fnmatch.fnmatchcase(path, pattern):
        return True
    return fnmatch.fnmatchcase(posixpath.basename(path), pattern)


def first_match(path, patterns):
    """Index of the first pattern matching `path`, or None."""
    return next((i for i, pattern in enumerate(patterns) if path_matches(path, pattern)), None)


def naive_classify(record, rules, now, digest_provider):
    """The precedence ladder evaluated one glob at a time."""
    path = record.path
    if any(path_matches(path, pat) for pat in rules.not_waste_globs):
        return WasteCategory.NOT_WASTE
    if record.kind is FileKind.REGULAR:
        matching = [expected for pat, expected in rules.degraded_checks if path_matches(path, pat)]
        if matching:
            digest = digest_provider(path)
            if any(digest is None or digest != expected for expected in matching):
                return WasteCategory.DEGRADED
    if any(path_matches(path, pat) for pat in rules.unintentional_globs):
        return WasteCategory.UNINTENTIONAL
    if any(path_matches(path, pat) for pat in rules.unwanted_globs):
        return WasteCategory.UNWANTED
    if record.kind is FileKind.REGULAR and f_lifetime(record) > 0 and now - record.atime > rules.used_threshold_secs:
        return WasteCategory.USED
    return WasteCategory.NOT_WASTE
