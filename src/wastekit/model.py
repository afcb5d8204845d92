"""Core domain types, pure classification logic, and `TreeOpener`, the
one way to open a file that a snapshot names.

Records and rules are immutable value objects, and `classify` is
deterministic given its inputs (content digests enter through an
injectable provider so callers control where bytes come from).
"""

from __future__ import annotations

import errno
import fnmatch
import hashlib
import json
import os
import re
import stat
from dataclasses import dataclass, fields
from enum import Enum
from typing import Callable, NamedTuple, Optional

from .errors import RuleSetError, WastekitError, open_input, require_int

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

    Sizes and timestamps are `int`s, not `bool`s; `path` is a `str`
    that `is_relative` accepts and that holds no surrogate pair (a high
    surrogate, then a low one), and `kind` a `FileKind`. So every record
    writes a snapshot line that `read_snapshot` reads back. An immutable
    named tuple, not a dataclass, because a snapshot read builds one per
    line and that must stay cheap next to the parse (`read_snapshot` and
    `scan` check fields inline and skip `__new__`).
    """

    __slots__ = ()

    def __new__(cls, path, size_bytes, mtime, atime, kind, allocated_bytes=None):
        if not (type(size_bytes) is int and type(mtime) is int and type(atime) is int) or (
            allocated_bytes is not None and type(allocated_bytes) is not int
        ):
            raise ValueError(
                f"size_bytes, mtime and atime must be integers and allocated_bytes an integer or null, "
                f"got {size_bytes!r}, {mtime!r}, {atime!r} and {allocated_bytes!r}"
            )
        if size_bytes < 0:
            raise ValueError(f"size_bytes must be >= 0, got {size_bytes}")
        if mtime < 0 or atime < 0:
            raise ValueError(f"timestamps must be >= 0, got mtime={mtime} atime={atime}")
        if type(path) is not str or not is_relative(path):
            raise ValueError(f"record path {path!r} must be relative, with no empty, '.' or '..' component")
        if re.search("[\ud800-\udbff][\udc00-\udfff]", path):
            raise ValueError(f"record path {path!r} holds a surrogate pair, which reads back as one character")
        if type(kind) is not FileKind:
            raise ValueError(f"kind must be a FileKind, got {kind!r}")
        return tuple.__new__(cls, (path, size_bytes, mtime, atime, kind, allocated_bytes))

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own `_make` (and so `_replace`) skips `__new__`.
        return cls(*iterable)


class GlobSet:
    """A glob group compiled once: a table for `*.EXT` patterns and one
    alternation regex for the rest.

    A pattern matches a path when it matches the full path or its
    basename, case-sensitively: '*.aux' matches 'docs/paper.aux';
    'build/*' matches only paths under a top-level build directory.

    A `*.EXT` pattern, EXT free of '.', '/', '*', '?' and '[', matches
    exactly the paths ending in '.EXT', so a table mapping '.EXT' to its
    lowest index is looked up with the path's text from its last '.'.
    """

    __slots__ = ("_match", "_index", "_ext")

    def __init__(self, patterns):
        # Each alternative is a named group so `first` can read which one
        # matched from `lastgroup`. `lastindex` would count the groups that
        # `fnmatch.translate` itself emits on Python 3.10. With no
        # alternatives the regex is `(?!)`, which matches nothing.
        # Alternatives are tried in order, so a match names the
        # lowest-numbered pattern that matches the whole string.
        self._ext: dict[str, int] = {}
        self._index: dict[str, int] = {}
        alternatives = []
        for i, pat in enumerate(patterns):
            if pat.startswith("*.") and not any(c in pat[2:] for c in "./*?["):
                self._ext.setdefault(pat[1:], i)
            else:
                self._index[f"p{i}"] = i
                alternatives.append(f"(?P<p{i}>{fnmatch.translate(pat)})")
        self._match = re.compile("|".join(alternatives) or "(?!)").match

    def matches(self, path: str) -> bool:
        return self.first(path) is not None

    def first(self, path: str) -> int | None:
        """Index of the first pattern matching `path`, or None."""
        # A path without a '.' looks up its last character, which no key
        # ('.EXT') equals.
        first = self._ext.get(path[path.rfind(".") :])
        hit = self._match(path)
        if hit is not None:
            index = self._index[hit.lastgroup]
            if first is None or index < first:
                first = index
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
        object.__setattr__(self, "degraded_checks", tuple(checks))
        require_int(self.used_threshold_secs, "used_threshold_secs", error=RuleSetError)
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
        object.__setattr__(self, "_degraded", tuple((GlobSet([g]), d) for g, d in checks))


def ruleset_from_json_obj(obj: dict) -> RuleSet:
    """The `RuleSet` whose fields a rules file names; a missing key keeps its default."""
    if not isinstance(obj, dict):
        raise RuleSetError("rules config must be a JSON object")
    unknown = set(obj) - {f.name for f in fields(RuleSet)}
    if unknown:
        raise RuleSetError(f"unknown rules keys: {sorted(unknown)}")
    if "degraded_checks" in obj:
        checks = obj["degraded_checks"]
        if not isinstance(checks, list) or any(not isinstance(e, dict) or set(e) != {"glob", "sha256"} for e in checks):
            raise RuleSetError(f"degraded_checks must be a list of {{glob, sha256}} objects, got {checks!r}")
        obj = {**obj, "degraded_checks": tuple((e["glob"], e["sha256"]) for e in checks)}
    return RuleSet(**obj)


def parse_json(text: str, what: str, error: type[WastekitError] = WastekitError):
    """The JSON value in `text`; raises `error`, naming the text as `what`,
    if it does not parse."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{what} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer past Python's digit limit for str-to-int
        raise error(f"{what} holds a number too long to read") from exc
    except RecursionError as exc:
        raise error(f"{what} is nested too deeply to parse") from exc


def load_json_file(path: str, what: str, error: type[WastekitError] = WastekitError):
    """The JSON value in the config file at `path`; raises `error`, naming
    the file as `what`, if it cannot be read or parsed."""
    with open_input(path, what, error) as fh:
        return parse_json(fh.read(), f"{what} {path}", error)


def load_rules(path: str) -> RuleSet:
    """Load and validate a rules config file (JSON)."""
    return ruleset_from_json_obj(load_json_file(path, "rules file", RuleSetError))


def f_lifetime(record: FileRecord) -> int:
    """Functional lifetime in seconds: max(0, atime - mtime).

    Zero means the file has never been read since it was last written,
    as far as timestamps can tell. Negative raw deltas (copy-preserved
    timestamps) clamp to zero. Undefined for non-regular files.
    """
    if record.kind is not FileKind.REGULAR:
        raise WastekitError(f"f-lifetime undefined for non-regular files: {record.path} is {record.kind.value}")
    return max(0, record.atime - record.mtime)


_NOATIME = getattr(os, "O_NOATIME", 0)


def open_noatime(path: str, flags: int, dir_fd: int | None = None) -> tuple[int, bool]:
    """`os.open` with O_NOATIME added, so reading through the fd leaves
    the atime alone. The kernel refuses O_NOATIME (EPERM) on a file the
    caller does not own; then the file is opened without it, as it is on
    a platform without O_NOATIME. Returns the fd and whether its atime is
    kept."""
    if _NOATIME:
        try:
            return os.open(path, flags | _NOATIME, dir_fd=dir_fd), True
        except PermissionError:
            pass
    return os.open(path, flags, dir_fd=dir_fd), False


def atime_moved_warning(count: int) -> str:
    return (
        f"atime moved by {count} read(s) made without O_NOATIME, which is refused on entries the caller does not own"
    )


def sha256_file(fd: int) -> str | None:
    """Lowercase hex sha256 of the regular file open at `fd`, from its
    offset on; None if it is anything else or a read fails."""
    try:
        if not stat.S_ISREG(os.fstat(fd).st_mode):
            return None
        h = hashlib.sha256()
        while block := os.read(fd, 1 << 16):
            h.update(block)
    except OSError:
        return None
    return h.hexdigest()


def is_relative(rel: str) -> bool:
    # Framed in slashes, an absolute path or an empty, '.' or '..'
    # component shows as '//', '/./' or '/../'. `scan` never writes one.
    framed = f"/{rel}/"
    return "//" not in framed and "/./" not in framed and "/../" not in framed


class OutsideRoot(OSError):
    """A record path that leaves its root: through a symlinked directory,
    or by being absolute or having an empty, '.' or '..' component."""


# Directories on the way down are opened without O_NOATIME: opening one
# does not read it. A file is opened non-blocking, so a FIFO cannot hang.
_ROOT_FLAGS = os.O_RDONLY | os.O_DIRECTORY | os.O_CLOEXEC
_DIR_FLAGS = _ROOT_FLAGS | os.O_NOFOLLOW
_FILE_FLAGS = os.O_RDONLY | os.O_NONBLOCK | os.O_NOFOLLOW | os.O_CLOEXEC


class TreeOpener:
    """Opens the files a snapshot names below its root, never through a
    symlink, walking down one directory at a time; a context manager, so
    no fd outlives the pass. The root is opened on first use, so a missing
    root fails each open, not the `with`. The last path's directories stay
    open and pinned: with records in path order a sibling costs one
    `openat`, and swapping a directory for a symlink redirects nothing.
    `atime_moved` counts the files opened without O_NOATIME."""

    def __init__(self, root: str):
        self.root = root
        self.atime_moved = 0
        self._names: list[str] = []  # the open directories below the root, outermost first
        self._fds: list[int] = []  # the root's fd, then one per name in `_names`

    def __enter__(self) -> "TreeOpener":
        return self

    def __exit__(self, *exc_info) -> None:
        while self._fds:
            os.close(self._fds.pop())

    def parent(self, rel: str) -> tuple[int, str]:
        """The fd of the directory holding `rel`, open until the next call,
        and the name of `rel` in it; raises OutsideRoot or OSError."""
        if not is_relative(rel):
            raise OutsideRoot(rel)
        *names, name = rel.split("/")
        if not self._fds:
            self._fds.append(os.open(self.root, _ROOT_FLAGS))
        while self._names != names[: len(self._names)]:
            self._names.pop()
            os.close(self._fds.pop())
        for part in names[len(self._names) :]:
            try:
                fd = os.open(part, _DIR_FLAGS, dir_fd=self._fds[-1])
            except OSError:
                if stat.S_ISLNK(os.stat(part, dir_fd=self._fds[-1], follow_symlinks=False).st_mode):
                    raise OutsideRoot(rel) from None
                raise
            self._fds.append(fd)
            self._names.append(part)
        return self._fds[-1], name

    def open(self, rel: str) -> int | None:
        """An fd of the regular file at `rel`, for the caller to close, or
        None if something else is there, a symlink included; raises as
        `parent` does. A file opened without O_NOATIME is counted."""
        dir_fd, name = self.parent(rel)
        try:
            fd, atime_kept = open_noatime(name, _FILE_FLAGS, dir_fd)
        except OSError as exc:
            if exc.errno == errno.ELOOP:  # O_NOFOLLOW met a symlink
                return None
            raise
        try:
            if not stat.S_ISREG(os.fstat(fd).st_mode):
                os.close(fd)
                return None
        except OSError:
            os.close(fd)
            raise
        if not atime_kept:
            self.atime_moved += 1
        return fd

    def digest(self, rel: str, sha256: Callable[[int], str | None] = sha256_file) -> str | None:
        """The digest `sha256` gives for the open fd of the regular file at
        `rel`, or None if there is no such file to read."""
        try:
            fd = self.open(rel)
        except OSError:
            return None
        if fd is None:
            return None
        try:
            return sha256(fd)
        finally:
            os.close(fd)


def _digest_under_cwd(path: str) -> str | None:
    with TreeOpener(os.curdir) as files:
        return files.digest(path)


def rule_category(
    record: FileRecord, rules: RuleSet, digest_provider: DigestProvider | None = None
) -> WasteCategory | None:
    """The category the glob groups and degraded checks give a record, or
    None when none decides (see `classify`). Unlike the Used test, it
    does not depend on the time."""
    path = record.path
    index = rules._globs.first(path)
    if index is None:
        return None
    category = rules._categories[index]
    if category is not None:
        return category
    # The first match is a degraded check: no allowlist glob matched.
    if record.kind is FileKind.REGULAR:
        expected = {digest for globs, digest in rules._degraded if globs.matches(path)}
        provider = digest_provider if digest_provider is not None else _digest_under_cwd
        # Degraded unless every matching check expects exactly the
        # content's digest; unreadable content gives None.
        if expected != {provider(path)}:
            return WasteCategory.DEGRADED
    if rules._unintentional.matches(path):
        return WasteCategory.UNINTENTIONAL
    if rules._unwanted.matches(path):
        return WasteCategory.UNWANTED
    return None


def is_idle(record: FileRecord, rules: RuleSet, now: int) -> bool:
    """The Used test: a regular file read since its last write (a positive
    f-lifetime), then left unread for longer than the idle threshold."""
    return record.kind is FileKind.REGULAR and record.atime > record.mtime and now - record.atime > rules.used_threshold_secs


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
    `rule_category` decides everything above Used, and `is_idle` is the
    Used test.

    Degraded checks hash the file content through `digest_provider`
    (default: read `record.path` under the working directory through a
    `TreeOpener`); an unreadable
    file counts as degraded, since unreadability is itself a quality
    loss. Content is only read when a degraded glob matches, and only
    for regular files.
    """
    category = rule_category(record, rules, digest_provider)
    if category is not None:
        return category
    return WasteCategory.USED if is_idle(record, rules, now) else WasteCategory.NOT_WASTE
