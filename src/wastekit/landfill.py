"""Semi-volatile key-value store where unaccessed entries fade away.

Time is logical: the caller advances epochs explicitly, so every run
is deterministic. Capacity pressure evicts the entry of the oldest last
access epoch; within one epoch the smallest key goes first, not the
least recently used entry. Epoch advances eagerly remove entries that
have gone unaccessed longer than the fade lifetime. Space reclaimed by
fading is free by construction — nothing is erased, the charge simply
stops being refreshed.
"""

from __future__ import annotations

import heapq
import math
import os
import re
import stat
from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, Iterator, NamedTuple, Optional, TextIO

from .errors import TraceError, WastekitError, open_input, read_int, require_int

# Stale heap records tolerated beyond the live count before a rebuild,
# so that a near-empty store does not rebuild on every operation.
_HEAP_SLACK = 64


def _require_bytes(obj, what: str) -> None:
    # Keys are ordered against each other in the heap, so one of another
    # type would fail there, after its entry was stored; a value of
    # another type would be stored with a length that is not its size.
    if not isinstance(obj, bytes):
        raise WastekitError(f"{what} must be bytes, got {type(obj).__name__}")


def _log_key(key: bytes) -> str:
    """The text the log writes for `key`: its UTF-8, as a trace reads it
    back. A trace splits its lines at whitespace, so a key whose text is
    empty or holds any would replay as other ops."""
    try:
        text = key.decode("utf-8")
    except UnicodeDecodeError:
        raise WastekitError(f"a logged key must be UTF-8, got {key!r}") from None
    if text.split() != [text]:
        raise WastekitError(f"a logged key must be text without whitespace, got {text!r}")
    return text


@dataclass(frozen=True)
class LandfillConfig:
    capacity_bytes: int
    fade_lifetime_epochs: int
    refresh_on_read: bool = True

    def __post_init__(self):
        require_int(self.capacity_bytes, "capacity_bytes")
        require_int(self.fade_lifetime_epochs, "fade_lifetime_epochs")


@dataclass(slots=True)
class LandfillEntry:
    """A live entry. `value` is None for an entry stored by `replay`,
    which accounts a PUT's size without building its bytes."""

    value: Optional[bytes]
    last_access_epoch: int
    size_bytes: int


class PutOutcome(Enum):
    STORED = "stored"
    REJECTED_TOO_LARGE = "rejected_too_large"


@dataclass(frozen=True)
class FadeStats:
    entries_faded: int
    bytes_reclaimed: int


class LandfillStats(NamedTuple):
    """Counters after an operation. A tuple, not a dataclass, because
    callers take one after every operation and building it must stay
    cheap next to the operation itself."""

    live_entries: int
    live_bytes: int
    capacity_bytes: int
    current_epoch: int
    lifetime_evictions: int
    lifetime_fades: int


class DigitalLandfill:
    """Store with fading entries, evicted oldest access epoch first and,
    within an epoch, smallest key first.

    Both eviction and fading need "oldest first" ordering, served by a
    single min-heap of (last_access_epoch, key) records with lazy
    deletion: refreshing an entry just pushes a newer record, and heap
    records that disagree with the live table are discarded when they
    surface. Once stale records outnumber live ones (plus a small
    slack), the heap is rebuilt from the table, so its length stays
    bounded by the live entries. Amortized O(log n) per operation
    regardless of trace shape.
    """

    def __init__(self, config: LandfillConfig, log: Optional[TextIO] = None):
        self.config = config
        self._entries: dict[bytes, LandfillEntry] = {}
        self._heap: list[tuple[int, bytes]] = []
        self._live_bytes = 0
        self._epoch = 0
        self._evictions = 0
        self._fades = 0
        # Moves whenever a counter of `stats` does, so that `replay` can
        # reuse its stats text until then.
        self._changes = 0
        self._log = log

    # -- helpers -------------------------------------------------------

    def _push(self, key: bytes) -> None:
        heap = self._heap
        heapq.heappush(heap, (self._epoch, key))
        if len(heap) > 2 * len(self._entries) + _HEAP_SLACK:
            self._heap = [(e.last_access_epoch, k) for k, e in self._entries.items()]
            heapq.heapify(self._heap)

    def _pop_oldest(self, before: float = math.inf) -> Optional[LandfillEntry]:
        """Remove and return the live entry with the smallest (epoch, key)
        if its epoch is below `before`, else None. Stale heap records on
        top are discarded along the way."""
        heap, entries = self._heap, self._entries
        while heap:
            epoch, key = heap[0]
            entry = entries.get(key)
            if entry is not None and entry.last_access_epoch == epoch:
                if epoch >= before:
                    return None
                heapq.heappop(heap)
                del entries[key]
                self._live_bytes -= entry.size_bytes
                return entry
            heapq.heappop(heap)
        return None

    def _put(self, key: bytes, value: Optional[bytes], size: int) -> PutOutcome:
        """The one PUT path: log the op, reject a PUT larger than the
        capacity, evict the smallest (epoch, key) until the entry fits,
        store it."""
        if self._log is not None:
            self._log.write(f"PUT {_log_key(key)} {size}\n")
        capacity = self.config.capacity_bytes
        if size > capacity:
            return PutOutcome.REJECTED_TOO_LARGE
        entry = self._entries.pop(key, None)
        if entry is not None:
            # Overwrite: not an eviction, the key stays live in its entry.
            self._live_bytes -= entry.size_bytes
        while self._live_bytes + size > capacity and self._pop_oldest() is not None:
            self._evictions += 1
        if entry is None:
            entry = LandfillEntry(value, self._epoch, size)
        else:
            entry.value, entry.last_access_epoch, entry.size_bytes = value, self._epoch, size
        self._entries[key] = entry
        self._live_bytes += size
        self._changes += 1
        self._push(key)
        return PutOutcome.STORED

    def _lookup(self, key: bytes) -> Optional[LandfillEntry]:
        """Log a GET and return the live entry, refreshing its access
        epoch when reads refresh; None once it has faded or was never
        stored. Fading is applied eagerly at epoch advances, so presence
        in the table means the entry is live."""
        if self._log is not None:
            self._log.write(f"GET {_log_key(key)}\n")
        entry = self._entries.get(key)
        if entry is not None and self.config.refresh_on_read and entry.last_access_epoch != self._epoch:
            entry.last_access_epoch = self._epoch
            self._push(key)
        return entry

    # -- operations ----------------------------------------------------

    def put(self, key: bytes, value: bytes) -> PutOutcome:
        _require_bytes(key, "key")
        _require_bytes(value, "value")
        return self._put(key, value, len(value))

    def get(self, key: bytes) -> Optional[bytes]:
        """Return the value, or None once the entry has faded or was
        never stored. An entry stored by `replay` has no value, so it
        reads as None here too; replay itself asks `_lookup`."""
        _require_bytes(key, "key")
        entry = self._lookup(key)
        return None if entry is None else entry.value

    def advance_epoch(self, n: int) -> FadeStats:
        require_int(n, "n")
        if self._log is not None:
            self._log.write(f"ADV {n}\n")
        self._epoch += n
        self._changes += 1
        threshold = self._epoch - self.config.fade_lifetime_epochs
        faded = 0
        reclaimed = 0
        # Entries fade when current_epoch - last_access > lifetime,
        # i.e. last_access < threshold (strict).
        while (entry := self._pop_oldest(threshold)) is not None:
            faded += 1
            reclaimed += entry.size_bytes
        self._fades += faded
        return FadeStats(entries_faded=faded, bytes_reclaimed=reclaimed)

    def stats(self) -> LandfillStats:
        # Positional, in field order: keyword construction costs twice as much.
        return LandfillStats(
            len(self._entries),
            self._live_bytes,
            self.config.capacity_bytes,
            self._epoch,
            self._evictions,
            self._fades,
        )

    def live_keys(self) -> list[bytes]:
        return sorted(self._entries)


# -- trace replay ------------------------------------------------------
#
# A trace is a line trace (see README's "Line traces") in the grammar of
# `_SYNTAX`, as is the op log. PUT carries a size, not content: replay
# accounts that many bytes without building them, so its memory is bounded
# by the live entries, not by the sizes a trace names. A replayed entry has
# value None.

TraceOp = tuple  # ("PUT", key, size) | ("GET", key) | ("ADV", n)
_SYNTAX = {"PUT": "PUT <key> <size>", "GET": "GET <key>", "ADV": "ADV <n>"}

# Characters per read of `load_trace`'s check pass.
_BLOCK = 1 << 16
# The start of the first line not in a form that `_ops` surely accepts:
# an upper-case verb, single spaces, a printable ASCII key, at most 18 digits
# to a number (far inside Python's str-to-int limit) and a "\n". `load_trace`
# reads such a line with `_ops`. A search for it, unlike a match of a run of
# good lines, keeps no state per line.
_UNCHECKED_LINE = re.compile(r"^(?!(?:PUT [!-~]+ [0-9]{1,18}|GET [!-~]+|ADV 0{0,17}[1-9][0-9]{0,17})\n)", re.M)


def _ops(lines: Iterable[str], first: int = 1) -> Iterator[TraceOp]:
    """The op of each line, the first numbered `first`, skipping blank lines
    and those whose first field starts with `#`. A `GET k` or `PUT k n` line
    with a short decimal size takes an inline path; every other line is read
    by the whole grammar, its verb in any case."""
    for lineno, line in enumerate(lines, first):
        fields = line.split()
        count = len(fields)
        try:
            if count == 2 and fields[0] == "GET":
                op = ("GET", fields[1].encode())
            elif count == 3 and fields[0] == "PUT" and len(fields[2]) < 19 and fields[2].isdecimal():
                op = ("PUT", fields[1].encode(), int(fields[2]))
            elif not count or fields[0][0] == "#":
                continue
            elif (verb := fields[0].upper()) == "PUT" and count == 3:
                op = ("PUT", fields[1].encode(), read_int(fields[2], "size", 0))
            elif verb == "GET" and count == 2:
                op = ("GET", fields[1].encode())
            elif verb == "ADV" and count == 2:
                op = ("ADV", read_int(fields[1], "n", 1))
            elif verb in _SYNTAX:
                raise TraceError(f"expected: {_SYNTAX[verb]}")
            else:
                raise TraceError(f"unknown operation {fields[0]!r}")
        except (WastekitError, ValueError) as exc:
            raise TraceError(f"trace line {lineno}: {exc}") from exc
        yield op


def parse_trace(lines: Iterable[str]) -> list[TraceOp]:
    return list(_ops(lines))


def _open_nonblocking(path: str, flags: int) -> int:
    # A FIFO then opens at once, not once a writer comes, and is refused.
    return os.open(path, flags | os.O_NONBLOCK)


def _identity(path: str, fh) -> tuple:
    """(st_dev, st_ino, st_size, st_mtime_ns) of the open trace file, which
    must be a regular file, since it is read once per pass."""
    st = os.fstat(fh.fileno())
    if not stat.S_ISREG(st.st_mode):
        raise TraceError(f"cannot read trace file {path}: not a regular file")
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


class TraceFile:
    """A trace file that `load_trace` has checked. Each iteration reads
    its ops from the file again, so memory is bounded by the live entries,
    not by the trace length, and refuses the file if it has changed since
    the check. `len()` is the number of ops."""

    def __init__(self, path: str, identity: tuple, count: int):
        self.path = path
        self._identity = identity
        self._count = count

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[TraceOp]:
        with open_input(self.path, "trace file", opener=_open_nonblocking) as fh:
            if _identity(self.path, fh) != self._identity:
                raise TraceError(f"trace file {self.path} changed after it was checked")
            yield from _ops(fh)


def load_trace(path: str) -> TraceFile:
    """The trace file at `path`, checked whole: a bad line raises here, as
    `parse_trace` would, before any op is replayed. Runs of lines that
    `_UNCHECKED_LINE` passes over are counted; each line it finds is read
    by `_ops`."""
    with open_input(path, "trace file", opener=_open_nonblocking) as fh:
        identity = _identity(path, fh)
        count, lineno, tail = 0, 1, ""
        while True:
            block = fh.read(_BLOCK)
            text = tail + block
            end = text.rfind("\n") + 1 if block else len(text)  # whole lines, or the rest at the end
            pos = 0
            while pos < end:
                stop = _UNCHECKED_LINE.search(text, pos, end).start()
                lines = text.count("\n", pos, stop)
                count += lines
                lineno += lines
                pos = text.find("\n", stop, end) + 1 or end
                if stop < end:
                    count += sum(1 for _ in _ops([text[stop:pos]], lineno))
                    lineno += 1
            tail = text[end:]
            if not block:
                return TraceFile(path, identity, count)


def replay(store: DigitalLandfill, ops: Iterable[TraceOp]) -> Iterator[str]:
    """Apply ops in order, yielding one event line per op, newline
    included: the op echoed back, its outcome, and the store's stats
    after that op, whatever the caller does to the store between lines.
    Each line is the JSON text that `json.dumps(event, sort_keys=True)`
    gives for the event object: keys in sorted order, `", "` and `": "`
    separators, non-ASCII key characters as `\\u` escapes. The line is
    built from the store's counters directly, with no event object in
    between; the stats text is rebuilt only once `store._changes` has
    moved, and its part up to `live_bytes` only once the epoch,
    evictions or fades have."""
    config_head = f'"stats": {{"capacity_bytes": {store.config.capacity_bytes}, "current_epoch": '
    changes = epoch = evictions = fades = None  # as of `stats`
    for index, op in enumerate(ops):
        if op[0] == "PUT":
            _, key, size = op
            outcome = store._put(key, None, size)
            head = (
                f'{{"index": {index}, "key": {_quote(key.decode("utf-8"))}, "op": "PUT", '
                f'"outcome": "{outcome._value_}", "size": {size}, '
            )
        elif op[0] == "GET":
            _, key = op
            result = "faded" if store._lookup(key) is None else "hit"
            head = f'{{"index": {index}, "key": {_quote(key.decode("utf-8"))}, "op": "GET", "result": "{result}", '
        else:
            _, n = op
            fade = store.advance_epoch(n)
            head = (
                f'{{"bytes_reclaimed": {fade.bytes_reclaimed}, "entries_faded": {fade.entries_faded}, '
                f'"index": {index}, "n": {n}, "op": "ADV", '
            )
        if store._changes != changes:
            changes = store._changes
            if store._epoch != epoch or store._evictions != evictions or store._fades != fades:
                epoch, evictions, fades = store._epoch, store._evictions, store._fades
                stats_head = (
                    f'{config_head}{epoch}, "lifetime_evictions": {evictions}, '
                    f'"lifetime_fades": {fades}, "live_bytes": '
                )
            stats = f'{stats_head}{store._live_bytes}, "live_entries": {len(store._entries)}}}}}\n'
        yield head + stats
