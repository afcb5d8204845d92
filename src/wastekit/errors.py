"""Exception types shared across the toolkit, and the input readers
that raise them."""

import re
from contextlib import contextmanager


class WastekitError(Exception):
    """Base class for domain errors (bad rules, bad traces, bad stores).

    The CLI maps these to exit code 1; usage errors stay exit code 2.
    """


class RuleSetError(WastekitError):
    """Rules config is malformed or fails validation."""


class TraceError(WastekitError):
    """A trace file (landfill ops or scheduler workload) is malformed."""


class ObjectNotFoundError(WastekitError):
    """Requested object id is not present in the chunk store."""


class ChunkCorruptionError(WastekitError):
    """A stored chunk is missing or fails digest verification."""


def shown(value) -> str:
    """`repr(value)` as a message shows a refused value: whole up to 80
    characters, else cut to 80 with `…`, so that a long input is not
    echoed back whole. An `int` past Python's digit limit for int-to-str
    is described by its size, and a value holding one by its type."""
    try:
        text = repr(value)
    except ValueError:  # an int too long to convert, or one inside `value`
        if isinstance(value, int):
            return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"
        return f"a {type(value).__name__} holding an integer too long to show"
    return text if len(text) <= 80 else text[:79] + "…"


def require_int(value, name: str, minimum: int = 1, error: type[WastekitError] = WastekitError) -> None:
    """Raises `error`, naming the value as `name`, unless `value` is an
    `int` (a `bool` is not) of at least `minimum`."""
    if type(value) is not int:
        raise error(f"{name} must be an integer, got {shown(value)}")
    if value < minimum:
        raise error(f"{name} must be >= {minimum}, got {shown(value)}")


@contextmanager
def open_input(path: str, what: str, error: type[WastekitError] = WastekitError, opener=None):
    """The UTF-8 text file at `path`, open for reading (through `opener`,
    as `open` takes it); raises `error`, naming the file as `what`, if it
    cannot be opened, read or decoded."""
    try:
        with open(path, "r", encoding="utf-8", opener=opener) as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def too_long(spelling: str, read) -> bool:
    """Whether `read` (`int` or `Fraction`), which refused `spelling`, reads
    it with each run of digits cut to one digit. If so, only a number past
    Python's digit limit for str-to-int was at fault."""
    try:
        read(re.sub(r"\d+", "1", spelling))
    except ValueError:
        return False
    return True


def read_int(field: str, name: str, minimum: int) -> int:
    """The integer that a trace field spells, checked as `require_int` checks it."""
    try:
        value = int(field)
    except ValueError:
        if too_long(field, int):
            raise TraceError(f"{name} holds a number too long to read") from None
        value = field
    if type(value) is not int or value < minimum:  # tested here to save a call per valid field
        require_int(value, name, minimum, TraceError)
    return value
