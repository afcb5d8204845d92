"""Semi-volatile key-value store where unaccessed entries fade away.

Time is logical: the caller advances epochs explicitly, so every run
is deterministic. Capacity pressure evicts strict-LRU; epoch advances
eagerly remove entries that have gone unaccessed longer than the fade
lifetime. Space reclaimed by fading is free by construction — nothing
is erased, the charge simply stops being refreshed.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, Iterator, NamedTuple, Optional, TextIO

from .errors import TraceError, WastekitError

# Stale heap records tolerated beyond the live count before a rebuild,
# so that a near-empty store does not rebuild on every operation.
_HEAP_SLACK = 64


@dataclass(frozen=True)
class LandfillConfig:
    capacity_bytes: int
    fade_lifetime_epochs: int
    refresh_on_read: bool = True

    def __post_init__(self):
        if self.capacity_bytes <= 0:
            raise WastekitError("capacity_bytes must be > 0")
        if self.fade_lifetime_epochs < 1:
            raise WastekitError("fade_lifetime_epochs must be >= 1")


@dataclass(slots=True)
class LandfillEntry:
    """A live entry. `value` is None for an entry stored by `replay`,
    which accounts a PUT's size without building its bytes."""

    key: bytes
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
    """LRU store with fading entries.

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
        capacity, evict strict-LRU until the entry fits, store it."""
        if self._log is not None:
            self._log.write(f"PUT {key.decode('utf-8', 'backslashreplace')} {size}\n")
        capacity = self.config.capacity_bytes
        if size > capacity:
            return PutOutcome.REJECTED_TOO_LARGE
        existing = self._entries.pop(key, None)
        if existing is not None:
            # Overwrite: not an eviction, the key stays live.
            self._live_bytes -= existing.size_bytes
        while self._live_bytes + size > capacity and self._pop_oldest() is not None:
            self._evictions += 1
        self._entries[key] = LandfillEntry(key, value, self._epoch, size)
        self._live_bytes += size
        self._push(key)
        return PutOutcome.STORED

    def _lookup(self, key: bytes) -> Optional[LandfillEntry]:
        """Log a GET and return the live entry, refreshing its access
        epoch when reads refresh; None once it has faded or was never
        stored. Fading is applied eagerly at epoch advances, so presence
        in the table means the entry is live."""
        if self._log is not None:
            self._log.write(f"GET {key.decode('utf-8', 'backslashreplace')}\n")
        entry = self._entries.get(key)
        if entry is not None and self.config.refresh_on_read and entry.last_access_epoch != self._epoch:
            entry.last_access_epoch = self._epoch
            self._push(key)
        return entry

    # -- operations ----------------------------------------------------

    def put(self, key: bytes, value: bytes) -> PutOutcome:
        return self._put(key, value, len(value))

    def get(self, key: bytes) -> Optional[bytes]:
        """Return the value, or None once the entry has faded or was
        never stored. An entry stored by `replay` has no value, so it
        reads as None here too; replay itself asks `_lookup`."""
        entry = self._lookup(key)
        return None if entry is None else entry.value

    def advance_epoch(self, n: int) -> FadeStats:
        if n < 1:
            raise WastekitError("advance_epoch requires n >= 1")
        if self._log is not None:
            self._log.write(f"ADV {n}\n")
        self._epoch += n
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
# Trace grammar, one operation per line (the op log uses the same):
#   PUT <key> <size>
#   GET <key>
#   ADV <n>
# Keys are whitespace-free tokens; blank lines and #-comments ignored.
# PUT carries a size, not content: replay accounts that many bytes
# without building them, so its memory is bounded by the live entries,
# not by the sizes a trace names. A replayed entry has value None.

TraceOp = tuple  # ("PUT", key, size) | ("GET", key) | ("ADV", n)


def parse_trace(lines: Iterable[str]) -> list[TraceOp]:
    ops: list[TraceOp] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        verb = parts[0].upper()
        try:
            if verb == "PUT":
                if len(parts) != 3:
                    raise ValueError("expected: PUT <key> <size>")
                size = int(parts[2])
                if size < 0:
                    raise ValueError("size must be >= 0")
                ops.append(("PUT", parts[1].encode("utf-8"), size))
            elif verb == "GET":
                if len(parts) != 2:
                    raise ValueError("expected: GET <key>")
                ops.append(("GET", parts[1].encode("utf-8")))
            elif verb == "ADV":
                if len(parts) != 2:
                    raise ValueError("expected: ADV <n>")
                n = int(parts[1])
                if n < 1:
                    raise ValueError("n must be >= 1")
                ops.append(("ADV", n))
            else:
                raise ValueError(f"unknown operation {parts[0]!r}")
        except ValueError as exc:
            raise TraceError(f"trace line {lineno}: {exc}") from exc
    return ops


def load_trace(path: str) -> list[TraceOp]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_trace(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise WastekitError(f"cannot read trace file {path}: {exc}") from exc


def replay(store: DigitalLandfill, ops: Iterable[TraceOp]) -> Iterator[str]:
    """Apply ops in order, yielding one event line per op, newline
    included: the op echoed back, its outcome, and the store's stats
    afterwards. Each line is the JSON text that
    `json.dumps(event, sort_keys=True)` gives for the event object:
    keys in sorted order, `", "` and `": "` separators, non-ASCII key
    characters as `\\u` escapes. The line is built from the store's
    counters directly, with no event object in between."""
    stats_head = f'"stats": {{"capacity_bytes": {store.config.capacity_bytes}, "current_epoch": '
    for index, op in enumerate(ops):
        if op[0] == "PUT":
            _, key, size = op
            outcome = store._put(key, None, size)
            head = (
                f'{{"index": {index}, "key": {_quote(key.decode("utf-8"))}, "op": "PUT", '
                f'"outcome": "{outcome.value}", "size": {size}, '
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
        yield (
            f'{head}{stats_head}{store._epoch}, "lifetime_evictions": {store._evictions}, '
            f'"lifetime_fades": {store._fades}, "live_bytes": {store._live_bytes}, '
            f'"live_entries": {len(store._entries)}}}}}\n'
        )
