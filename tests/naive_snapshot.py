"""Line-at-a-time reference for `read_snapshot`.

Every record line goes through `json.loads`, `FileRecord.from_json_obj`
and the path rule, one at a time, as the reader did before it checked
the fields inline. This is the behavioral oracle the fast reader is
compared against: for any file it must return an equal snapshot or
raise a WastekitError with the identical message.
"""

import json

from wastekit.errors import WastekitError
from wastekit.model import FileRecord
from wastekit.scanner import SNAPSHOT_FORMAT, Snapshot


def naive_read_snapshot(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise WastekitError(f"cannot read snapshot {path}: {exc}") from exc
    if not lines:
        raise WastekitError(f"snapshot {path} is empty")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise WastekitError(f"snapshot {path} header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != SNAPSHOT_FORMAT:
        raise WastekitError(f"{path} is not a {SNAPSHOT_FORMAT} file")
    root, taken_at = header.get("root"), header.get("taken_at")
    atime_reliable, warnings = header.get("atime_reliable", True), header.get("warnings", [])
    if not (isinstance(root, str) and type(taken_at) is int and type(atime_reliable) is bool and type(warnings) is list):
        raise WastekitError(f"snapshot {path} header needs a string 'root', an integer 'taken_at', "
                            "and optionally a boolean 'atime_reliable' and a 'warnings' list")
    records = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            rec = FileRecord.from_json_obj(json.loads(line))
        except json.JSONDecodeError as exc:
            raise WastekitError(f"snapshot {path} line {i} is not valid JSON: {exc}") from exc
        except WastekitError as exc:
            raise WastekitError(f"snapshot {path} line {i}: {exc}") from exc
        framed = f"/{rec.path}/"
        if type(rec.path) is not str or "//" in framed or "/./" in framed or "/../" in framed:
            raise WastekitError(f"snapshot {path} line {i}: record path {rec.path!r} must be relative, "
                                "with no empty, '.' or '..' component")
        records.append(rec)
    snap = Snapshot(
        root=root,
        taken_at=taken_at,
        records=records,
        atime_reliable=atime_reliable,
        warnings=list(warnings),
    )
    snap.validate()
    return snap
