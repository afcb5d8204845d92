"""Line-at-a-time reference for `read_snapshot`.

Every record line goes through `json.loads` and `record_from_obj`
(whose `FileRecord` holds the path rule), one at a time, as the reader
did before it read the writer's own lines in one pass, and `Snapshot`
checks the order. Lines end at `\n` (the text-mode read turns `\r\n` and
`\r` into it), never at U+2028 or U+0085. An integer too long for Python
to convert is reported in one line, not with Python's own message.
`record_obj` is the object a record line encodes. This is the behavioral
oracle the fast reader is compared against: for any file it must return
an equal snapshot or raise a WastekitError with the identical message.
"""

import json
import os

from wastekit.errors import WastekitError
from wastekit.model import FileKind, FileRecord
from wastekit.scanner import SNAPSHOT_FORMAT, Snapshot


def record_obj(rec):
    obj = {
        "path": rec.path,
        "size_bytes": rec.size_bytes,
        "mtime": rec.mtime,
        "atime": rec.atime,
        "kind": rec.kind.value,
    }
    if rec.allocated_bytes is not None:
        obj["allocated_bytes"] = rec.allocated_bytes
    return obj


def record_from_obj(obj):
    try:
        return FileRecord(
            path=obj["path"],
            size_bytes=obj["size_bytes"],
            mtime=obj["mtime"],
            atime=obj["atime"],
            kind=FileKind(obj["kind"]),
            allocated_bytes=obj.get("allocated_bytes"),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise WastekitError(f"malformed file record: {exc}") from exc


def naive_read_snapshot(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise WastekitError(f"cannot read snapshot {path}: {exc}") from exc
    if not text:
        raise WastekitError(f"snapshot {path} is empty")
    lines = text.split("\n")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise WastekitError(f"snapshot {path} header is not valid JSON: {exc}") from exc
    except ValueError as exc:
        raise WastekitError(f"snapshot {path} header holds a number too long to read") from exc
    except RecursionError as exc:
        raise WastekitError(f"snapshot {path} header is nested too deeply to parse") from exc
    if not isinstance(header, dict) or header.get("format") != SNAPSHOT_FORMAT:
        raise WastekitError(f"{path} is not a {SNAPSHOT_FORMAT} file")
    root, taken_at = header.get("root"), header.get("taken_at")
    atime_reliable, warnings = header.get("atime_reliable", True), header.get("warnings", [])
    if not (isinstance(root, str) and os.path.isabs(root) and type(taken_at) is int and type(atime_reliable) is bool
            and type(warnings) is list and all(type(w) is str for w in warnings)):
        raise WastekitError(f"snapshot {path} header needs an absolute path 'root', an integer 'taken_at', "
                            "and optionally a boolean 'atime_reliable' and a 'warnings' list")
    records = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            rec = record_from_obj(json.loads(line))
        except json.JSONDecodeError as exc:
            raise WastekitError(f"snapshot {path} line {i} is not valid JSON: {exc}") from exc
        except ValueError as exc:
            raise WastekitError(f"snapshot {path} line {i} holds a number too long to read") from exc
        except RecursionError as exc:
            raise WastekitError(f"snapshot {path} line {i} is nested too deeply to parse") from exc
        except WastekitError as exc:
            raise WastekitError(f"snapshot {path} line {i}: {exc}") from exc
        records.append(rec)
    return Snapshot(
        root=root,
        taken_at=taken_at,
        records=records,
        atime_reliable=atime_reliable,
        warnings=list(warnings),
    )
