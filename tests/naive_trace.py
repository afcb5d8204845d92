"""Line-at-a-time reference for `parse_trace` and `parse_workload`.

Each parser has its own integer parsing, as the two did before they
shared `errors.read_int`. This is the behavioral oracle that
`landfill._ops` and `penalty.parse_workload` are compared against:
for any lines they must return equal ops or events, or raise a TraceError
naming the same line. Only the message of an integer field may differ:
here it is Python's own `int` message, or `<field> must be >= N`.
"""

from wastekit.errors import TraceError, WastekitError
from wastekit.penalty import TraceEvent, WorkloadTrace, _as_fraction


def naive_parse_trace(lines):
    ops = []
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


def naive_parse_workload(lines):
    events = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise TraceError(f"workload line {lineno}: expected '<tick> <producer> <requested> <waste_fraction>'")
        try:
            tick = int(parts[0])
            requested = int(parts[2])
        except ValueError as exc:
            raise TraceError(f"workload line {lineno}: {exc}") from exc
        if tick < 0:
            raise TraceError(f"workload line {lineno}: tick must be >= 0")
        if requested < 0:
            raise TraceError(f"workload line {lineno}: requested_bytes must be >= 0")
        try:
            fraction = _as_fraction(parts[3], "waste_fraction")
        except WastekitError as exc:
            raise TraceError(f"workload line {lineno}: {exc}") from exc
        if not 0 <= fraction <= 1:
            raise TraceError(f"workload line {lineno}: waste_fraction must be in [0, 1]")
        events.append(TraceEvent(tick, parts[1], requested, fraction))
    return WorkloadTrace(events=tuple(events))


def naive_load(parse, path):
    """`parse` of the lines of the UTF-8 text file at `path`, as the file
    object yields them."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh)
