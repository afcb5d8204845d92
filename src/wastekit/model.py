"""Core domain types and pure classification logic.

Everything here is immutable and side-effect free: records are value
objects, and `classify` is deterministic given its inputs (content
digests enter through an injectable provider so callers control where
bytes come from).
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
import os
import re
import stat
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Optional

from .errors import RuleSetError, WastekitError

# Idle-time cutoff separating "accessed once, then abandoned" from merely
# quiet data. No authoritative value exists; 30 days is a config default.
DEFAULT_USED_THRESHOLD_SECS = 30 * 86400

DIGEST_HEX_LEN = 64  # sha256

# Maps a record path to the lowercase hex sha256 of its current content,
# or None when the content cannot be read.
DigestProvider = Callable[[str], Optional[str]]


class FileKind(Enum):
    REGULAR = "Regular"
    DIRECTORY = "Directory"
    SYMLINK = "Symlink"
    OTHER = "Other"


class WasteCategory(Enum):
    """Primary waste category of a filesystem object.

    A file can plausibly sit in several categories at once; downstream
    planning needs one decision per object, so classification resolves
    to a single primary category by fixed precedence (see `classify`).
    """

    UNINTENTIONAL = "Unintentional"
    USED = "Used"
    DEGRADED = "Degraded"
    UNWANTED = "Unwanted"
    NOT_WASTE = "NotWaste"

    def is_waste(self) -> bool:
        return self is not WasteCategory.NOT_WASTE


class _FileRecordFields(NamedTuple):
    path: str
    size_bytes: int
    mtime: int
    atime: int
    kind: FileKind
    allocated_bytes: int | None = None


class FileRecord(_FileRecordFields):
    """One scanned filesystem object; the unit of classification.

    Timestamps are raw seconds since epoch as reported by the
    filesystem. atime < mtime is stored as-is (copy-preserved
    timestamps, noatime mounts); the f-lifetime computation clamps.

    An immutable named tuple, not a dataclass, because a snapshot read
    builds one per line and that must stay cheap next to the parse.
    """

    __slots__ = ()

    def __new__(cls, path, size_bytes, mtime, atime, kind, allocated_bytes=None):
        if size_bytes < 0:
            raise ValueError(f"size_bytes must be >= 0, got {size_bytes}")
        if mtime < 0 or atime < 0:
            raise ValueError(f"timestamps must be >= 0, got mtime={mtime} atime={atime}")
        if not path:
            raise ValueError("path must be non-empty")
        return tuple.__new__(cls, (path, size_bytes, mtime, atime, kind, allocated_bytes))

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own `_make` (and so `_replace`) skips `__new__`.
        return cls(*iterable)

    def to_json_obj(self) -> dict:
        obj = {
            "path": self.path,
            "size_bytes": self.size_bytes,
            "mtime": self.mtime,
            "atime": self.atime,
            "kind": self.kind.value,
        }
        if self.allocated_bytes is not None:
            obj["allocated_bytes"] = self.allocated_bytes
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "FileRecord":
        try:
            size, mtime, atime = obj["size_bytes"], obj["mtime"], obj["atime"]
            allocated = obj.get("allocated_bytes")
            if not (type(size) is int and type(mtime) is int and type(atime) is int) or (
                allocated is not None and type(allocated) is not int
            ):
                raise ValueError(
                    f"size_bytes, mtime and atime must be integers and allocated_bytes an integer or null, "
                    f"got {size!r}, {mtime!r}, {atime!r} and {allocated!r}"
                )
            return cls(
                path=obj["path"],
                size_bytes=size,
                mtime=mtime,
                atime=atime,
                kind=FileKind(obj["kind"]),
                allocated_bytes=allocated,
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise WastekitError(f"malformed file record: {exc}") from exc


class GlobSet:
    """A glob group compiled once into one alternation regex.

    A pattern matches a path when it matches the full path or its
    basename, case-sensitively: '*.aux' matches 'docs/paper.aux';
    'build/*' matches only paths under a top-level build directory.
    """

    __slots__ = ("_match", "_index")

    def __init__(self, patterns):
        # Each alternative is a named group so `first` can read which one
        # matched from `lastgroup`. `lastindex` would count the groups that
        # `fnmatch.translate` itself emits on Python 3.10. An empty group
        # compiles to `(?!)`, which matches nothing. Alternatives are tried
        # in order, so a match names the lowest-numbered pattern that
        # matches the whole string.
        patterns = list(patterns)
        alternation = "|".join(f"(?P<p{i}>{fnmatch.translate(pat)})" for i, pat in enumerate(patterns))
        self._match = re.compile(alternation or "(?!)").match
        self._index = {f"p{i}": i for i in range(len(patterns))}

    def matches(self, path: str) -> bool:
        return self._match(path) is not None or self._match(path[path.rfind("/") + 1 :]) is not None

    def first(self, path: str) -> int | None:
        """Index of the first pattern matching `path`, or None."""
        hit = self._match(path)
        first = None if hit is None else self._index[hit.lastgroup]
        hit = self._match(path[path.rfind("/") + 1 :])
        if hit is not None:
            index = self._index[hit.lastgroup]
            if first is None or index < first:
                first = index
        return first


def _validate_globs(patterns, group: str) -> tuple[str, ...]:
    if not isinstance(patterns, (list, tuple)):
        raise RuleSetError(f"{group} must be a list of glob patterns, got {patterns!r}")
    out = []
    for pat in patterns:
        if not isinstance(pat, str) or not pat or pat.isspace():
            raise RuleSetError(f"{group}: invalid glob pattern {pat!r}")
        out.append(pat)
    return tuple(out)


@dataclass(frozen=True)
class RuleSet:
    """Classification rules: glob groups plus the idle-time cutoff.

    `not_waste_globs` is an allowlist evaluated before everything else.
    `degraded_checks` pairs a glob with the expected sha256 of matching
    files; a mismatch (or unreadable content) marks the file Degraded.
    """

    not_waste_globs: tuple[str, ...] = ()
    unintentional_globs: tuple[str, ...] = ()
    unwanted_globs: tuple[str, ...] = ()
    degraded_checks: tuple[tuple[str, str], ...] = ()
    used_threshold_secs: int = DEFAULT_USED_THRESHOLD_SECS

    def __post_init__(self):
        for group in ("not_waste_globs", "unintentional_globs", "unwanted_globs"):
            object.__setattr__(self, group, _validate_globs(getattr(self, group), group))
        checks = []
        globs_by_digest: dict[str, list[str]] = {}
        for item in self.degraded_checks:
            glob_pat, digest = item
            _validate_globs([glob_pat], "degraded_checks")
            if (
                not isinstance(digest, str)
                or len(digest) != DIGEST_HEX_LEN
                or digest != digest.lower()
                or any(c not in "0123456789abcdef" for c in digest)
            ):
                raise RuleSetError(f"degraded_checks: expected {DIGEST_HEX_LEN}-char lowercase hex digest, got {digest!r}")
            checks.append((glob_pat, digest))
            globs_by_digest.setdefault(digest, []).append(glob_pat)
        object.__setattr__(self, "degraded_checks", tuple(checks))
        threshold = self.used_threshold_secs
        if type(threshold) is not int or threshold <= 0:
            raise RuleSetError(f"used_threshold_secs must be a positive integer, got {threshold!r}")
        # Compiled once here, since `classify` runs once per record. `_globs`
        # holds every group in precedence order, so the first pattern that
        # matches names the winning group: `_categories` maps its index to
        # the category, or to None for a degraded check, which still needs
        # the content's digest.
        groups = (
            (self.not_waste_globs, WasteCategory.NOT_WASTE),
            (tuple(glob_pat for glob_pat, _ in checks), None),
            (self.unintentional_globs, WasteCategory.UNINTENTIONAL),
            (self.unwanted_globs, WasteCategory.UNWANTED),
        )
        object.__setattr__(self, "_globs", GlobSet(pat for patterns, _ in groups for pat in patterns))
        object.__setattr__(self, "_categories", tuple(cat for patterns, cat in groups for _ in patterns))
        object.__setattr__(self, "_unintentional", GlobSet(self.unintentional_globs))
        object.__setattr__(self, "_unwanted", GlobSet(self.unwanted_globs))
        object.__setattr__(self, "_degraded", tuple((GlobSet(g), d) for d, g in globs_by_digest.items()))


_RULESET_KEYS = {"not_waste_globs", "unintentional_globs", "unwanted_globs", "degraded_checks", "used_threshold_secs"}


def ruleset_from_json_obj(obj: dict) -> RuleSet:
    if not isinstance(obj, dict):
        raise RuleSetError("rules config must be a JSON object")
    unknown = set(obj) - _RULESET_KEYS
    if unknown:
        raise RuleSetError(f"unknown rules keys: {sorted(unknown)}")
    checks = obj.get("degraded_checks", [])
    if not isinstance(checks, list) or any(not isinstance(e, dict) or set(e) != {"glob", "sha256"} for e in checks):
        raise RuleSetError(f"degraded_checks must be a list of {{glob, sha256}} objects, got {checks!r}")
    return RuleSet(
        not_waste_globs=obj.get("not_waste_globs", ()),
        unintentional_globs=obj.get("unintentional_globs", ()),
        unwanted_globs=obj.get("unwanted_globs", ()),
        degraded_checks=tuple((e["glob"], e["sha256"]) for e in checks),
        used_threshold_secs=obj.get("used_threshold_secs", DEFAULT_USED_THRESHOLD_SECS),
    )


def load_rules(path: str) -> RuleSet:
    """Load and validate a rules config file (JSON)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise RuleSetError(f"cannot read rules file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise RuleSetError(f"rules file {path} is not valid JSON: {exc}") from exc
    return ruleset_from_json_obj(obj)


def f_lifetime(record: FileRecord) -> int:
    """Functional lifetime in seconds: max(0, atime - mtime).

    Zero means the file has never been read since it was last written,
    as far as timestamps can tell. Negative raw deltas (copy-preserved
    timestamps) clamp to zero. Undefined for non-regular files.
    """
    if record.kind is not FileKind.REGULAR:
        raise WastekitError(f"f-lifetime undefined for non-regular files: {record.path} is {record.kind.value}")
    return max(0, record.atime - record.mtime)


# Non-blocking, so opening a FIFO cannot hang; not following a final
# symlink, so a digest only ever reads the file the record names.
_DIGEST_OPEN_FLAGS = os.O_RDONLY | os.O_NONBLOCK | os.O_NOFOLLOW | os.O_CLOEXEC


def sha256_file(path: str) -> str | None:
    """Lowercase hex sha256 of a file's content, or None if unreadable.

    Anything but a regular file counts as unreadable, and so does a
    symlink at `path` itself (directories above it may be symlinks)."""
    try:
        fd = os.open(path, _DIGEST_OPEN_FLAGS)
    except OSError:
        return None
    try:
        if not stat.S_ISREG(os.fstat(fd).st_mode):
            return None
        h = hashlib.sha256()
        while block := os.read(fd, 1 << 16):
            h.update(block)
    except OSError:
        return None
    finally:
        os.close(fd)
    return h.hexdigest()


def classify(
    record: FileRecord,
    rules: RuleSet,
    now: int,
    digest_provider: DigestProvider | None = None,
) -> WasteCategory:
    """Assign the single primary waste category of a record.

    Precedence: NotWaste allowlist, then Degraded, Unintentional,
    Unwanted, Used, and NotWaste as the fallthrough. Degraded wins over
    the others because corruption dominates any usefulness question.

    Degraded checks hash the file content through `digest_provider`
    (default: read `record.path` from the filesystem); an unreadable
    file counts as degraded, since unreadability is itself a quality
    loss. Content is only read when a degraded glob matches, and only
    for regular files.
    """
    path = record.path
    index = rules._globs.first(path)
    if index is not None:
        category = rules._categories[index]
        if category is not None:
            return category
        # The first match is a degraded check: no allowlist glob matched.
        if record.kind is FileKind.REGULAR:
            expected = {digest for globs, digest in rules._degraded if globs.matches(path)}
            provider = digest_provider if digest_provider is not None else sha256_file
            # Degraded unless every matching check expects exactly the
            # content's digest; unreadable content gives None.
            if expected != {provider(path)}:
                return WasteCategory.DEGRADED
        if rules._unintentional.matches(path):
            return WasteCategory.UNINTENTIONAL
        if rules._unwanted.matches(path):
            return WasteCategory.UNWANTED

    # f_lifetime(record) > 0, inlined: this runs once per record.
    if record.kind is FileKind.REGULAR and record.atime > record.mtime and now - record.atime > rules.used_threshold_secs:
        return WasteCategory.USED

    return WasteCategory.NOT_WASTE
