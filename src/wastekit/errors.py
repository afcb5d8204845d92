"""Exception types shared across the toolkit."""


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


def require_int(value, name: str, minimum: int = 1, error: type[WastekitError] = WastekitError) -> None:
    """Raises `error`, naming the value as `name`, unless `value` is an
    `int` (a `bool` is not) of at least `minimum`."""
    if type(value) is not int:
        raise error(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise error(f"{name} must be >= {minimum}, got {value!r}")
