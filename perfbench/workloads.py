"""Seeded inputs for the wastekit benchmark and the outputs each
subcommand must produce on them.

Every generator takes the workload seed and writes its inputs under a
directory of the benchmark's own. The expected outputs are worked out
here from the generator's own model of what it wrote, never by calling
wastekit, so a wrong answer from the program shows up as a failed check.
Each `check_*` function takes the expectation and the captured output
and returns a list of problems (empty when the output is right).
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
import os
import posixpath
import random
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate

DAY = 86400

# -- directory tree ------------------------------------------------------

NOT_WASTE_GLOBS = ("*.c", "*.h", "*.py")
UNINTENTIONAL_GLOBS = ("*.o", "*.tmp", "*~", "core.*", "tmp/*")
UNWANTED_GLOBS = ("*.bak", "*.iso", "*.old")
CHK_PAYLOAD = bytes(range(256)) * 48  # 12 KiB: content of every intact *.chk file
GOLDEN_PAYLOAD = bytes(range(255, -1, -1)) * 160  # 40 KiB: every intact golden/*.bin
DEGRADED_CHECKS = (("*.chk", CHK_PAYLOAD), ("golden/*.bin", GOLDEN_PAYLOAD))
MASK_RULES = (
    ("*.o", {"recycle_ok": True}),
    ("*.tmp", {"reduce_ok": True}),
    ("*.bak", {"reuse_ok": True, "recycle_ok": True}),
    ("p0*/s0*/*", {"recover_ok": True}),
)
CATEGORIES = ("Unintentional", "Used", "Degraded", "Unwanted", "NotWaste")
# The planner's preference ladder and the documented defaults of the cost
# model that `plan` uses when given no --device/--endurance/--erase-block.
ACTIONS = (("Reduce", "reduce_ok", 0.0), ("Reuse", "reuse_ok", 0.2), ("Recycle", "recycle_ok", 0.3),
           ("Recover", "recover_ok", 0.4), ("Dispose", None, 1.0))
ERASE_BLOCK_BYTES = 256 * 1024
MLC_ENDURANCE_CYCLES = 1000
USED_THRESHOLD_SECS = 30 * DAY
AGE_BUCKETS = ((1, "0-1d"), (7, "1-7d"), (30, "7-30d"), (90, "30-90d"), (365, "90-365d"))

# Leaf-file kinds: (name pattern, weight). "{i}" is a unique counter.
LEAF_KINDS = (
    ("src{i}.c", 8), ("inc{i}.h", 4), ("tool{i}.py", 3),
    ("obj{i}.o", 8), ("temp{i}.tmp", 4), ("notes{i}.txt~", 2), ("core.{i}", 1),
    ("old{i}.bak", 3), ("disk{i}.iso", 1), ("conf{i}.old", 2),
    ("sum{i}.chk", 2),
    ("doc{i}.txt", 15), ("paper{i}.pdf", 8), ("img{i}.jpg", 10), ("IMG{i}.JPG", 2),
    ("table{i}.csv", 8), ("blob{i}.bin", 5), ("readme{i}.md", 4), ("noext{i}", 3),
    ("pack{i}.tar.gz", 2),
)
TMP_KINDS = (("t{i}.dat", 5), ("t{i}.log", 3), ("t{i}.c", 1))
# Ages in days, each with +-10% jitter; every band stays clear of the
# Recover age-bucket edges (1, 7, 30, 90, 365 days).
AGE_BANDS = ((0.4, 1), (3, 1), (14, 1.5), (50, 2), (200, 2), (900, 3))
MAX_FILE = 256 * 1024
FIXTURE_PROFILE = (47.4, 38.1)  # never-accessed % of files and of bytes
FIXTURE_BYTE_UNIT = 64


@dataclass(frozen=True)
class TreeSize:
    leaf_files: int
    top_dirs: int
    sub_dirs: int
    tmp_files: int
    golden_files: int
    fixture_files: int


@dataclass
class Entry:
    kind: str  # "Regular", "Directory" or "Symlink"
    size: int
    mtime: int
    atime: int
    intact: bool | None = None  # set for files a degraded check hashes


def _glob_regex(globs) -> re.Pattern:
    return re.compile("|".join(f"(?:{fnmatch.translate(g)})" for g in globs))


_NOT_WASTE = _glob_regex(NOT_WASTE_GLOBS)
_UNINTENTIONAL = _glob_regex(UNINTENTIONAL_GLOBS)
_UNWANTED = _glob_regex(UNWANTED_GLOBS)
_CHECKED = _glob_regex(g for g, _ in DEGRADED_CHECKS)
_MASKS = [(_glob_regex([g]), bits) for g, bits in MASK_RULES]


def _matches(rx: re.Pattern, path: str) -> bool:
    """Glob match against the full path or its basename."""
    return rx.match(path) is not None or rx.match(posixpath.basename(path)) is not None


def expected_category(path: str, e: Entry, now: int) -> str:
    if _matches(_NOT_WASTE, path):
        return "NotWaste"
    if e.kind == "Regular" and _matches(_CHECKED, path) and not e.intact:
        return "Degraded"
    if _matches(_UNINTENTIONAL, path):
        return "Unintentional"
    if _matches(_UNWANTED, path):
        return "Unwanted"
    if e.kind == "Regular" and e.atime > e.mtime and now - e.atime > USED_THRESHOLD_SECS:
        return "Used"
    return "NotWaste"


def _times(rng: random.Random, t0: int) -> tuple[int, int]:
    """(mtime, atime): never read, read recently, or read long ago. Every
    atime is either under a day old or over 50 days old, far from the
    30-day Used threshold."""
    days = rng.choices([a for a, _ in AGE_BANDS], weights=[w for _, w in AGE_BANDS])[0]
    age = int(days * DAY * rng.uniform(0.9, 1.1))
    mtime = t0 - age
    state = rng.choices(("never", "recent", "old"), weights=(35, 20, 45) if age >= 60 * DAY else (50, 50, 0))[0]
    if state == "never":
        return mtime, mtime
    if state == "recent":
        return mtime, t0 - int(rng.uniform(0.05, 0.3) * DAY)
    return mtime, mtime + 1 + int(rng.uniform(0.1, 0.9) * (t0 - 50 * DAY - mtime))


class Tree:
    """An on-disk tree, the OLD snapshot taken before a seeded set of
    changes, and the generator's model of both states."""

    def __init__(self, dest: str, seed: int, size: TreeSize, t0: int, build_fixture, scan_old):
        self.root = os.path.join(dest, "tree")
        self.rules_path = os.path.join(dest, "rules.json")
        self.masks_path = os.path.join(dest, "masks.json")
        self.old_snap = os.path.join(dest, "old.snap")
        self.new_snap = os.path.join(dest, "new.snap")
        self.t0 = t0
        self.dir_time = t0 - 100 * DAY
        rng = random.Random(seed * 7919 + 1)
        self._counter = 0
        entries: dict[str, Entry] = {}
        self.leaf_dirs = [f"p{d:02d}/s{s:02d}" for d in range(size.top_dirs) for s in range(size.sub_dirs)]
        dirs = [f"p{d:02d}" for d in range(size.top_dirs)] + self.leaf_dirs + ["tmp", "golden"]
        for d in dirs:
            os.makedirs(os.path.join(self.root, d))
        for i in range(size.leaf_files):
            self._add_file(entries, rng, self.leaf_dirs[i % len(self.leaf_dirs)], LEAF_KINDS)
        for _ in range(size.tmp_files):
            self._add_file(entries, rng, "tmp", TMP_KINDS)
        for _ in range(size.golden_files):
            self._add_checked(entries, rng, f"golden/g{self._next()}.bin", GOLDEN_PAYLOAD)
        for d in range(size.top_dirs):
            path = f"p{d:02d}/latest"
            os.symlink("s00", os.path.join(self.root, path))
            os.utime(os.path.join(self.root, path), (self.dir_time, self.dir_time), follow_symlinks=False)
            entries[path] = Entry("Symlink", len("s00"), self.dir_time, self.dir_time)
        fixture_base = t0 - 1500 * DAY
        self.fixture_s = build_fixture(os.path.join(self.root, "fixture"), *FIXTURE_PROFILE,
                                       total_files=size.fixture_files, byte_unit=FIXTURE_BYTE_UNIT,
                                       base_time=fixture_base)
        entries.update(_fixture_model(size.fixture_files, fixture_base))
        dirs.append("fixture")
        for d in dirs:
            entries[d] = Entry("Directory", 0, self.dir_time, self.dir_time)
        self.dirs = dirs
        self._touch_dirs()
        with open(self.rules_path, "w", encoding="utf-8") as fh:
            json.dump(_rules_obj(), fh)
        with open(self.masks_path, "w", encoding="utf-8") as fh:
            json.dump({"rules": [{"glob": g, **bits} for g, bits in MASK_RULES], "default": {}}, fh)
        self.old = {p: replace(e) for p, e in entries.items()}
        scan_old(self.root, self.old_snap)
        self._mutate(entries, rng)
        self._touch_dirs()
        self.new = entries
        self.checked_paths = sorted(p for p, e in entries.items() if e.intact is not None)
        self._expected: dict = {}

    def _next(self) -> int:
        self._counter += 1
        return self._counter

    def _add_file(self, entries, rng, directory, kinds) -> None:
        pattern = rng.choices([k for k, _ in kinds], weights=[w for _, w in kinds])[0]
        path = f"{directory}/{pattern.format(i=self._next())}"
        if path.endswith(".chk"):
            self._add_checked(entries, rng, path, CHK_PAYLOAD)
            return
        size = 0 if rng.random() < 0.05 else min(MAX_FILE, int(rng.paretovariate(1.3) * 400))
        mtime, atime = _times(rng, self.t0)
        # Nothing reads these files, so they are sparse: the scan sees their
        # size without the set-up writing (and the kernel flushing) the bytes.
        full = os.path.join(self.root, path)
        with open(full, "wb") as fh:
            fh.truncate(size)
        os.utime(full, (atime, mtime))
        entries[path] = Entry("Regular", size, mtime, atime)

    def _add_checked(self, entries, rng, path, payload) -> None:
        intact = rng.random() >= 0.25
        data = payload
        if not intact:
            pos = rng.randrange(len(payload))
            data = payload[:pos] + bytes([payload[pos] ^ 0xFF]) + payload[pos + 1 :]
        mtime, atime = _times(rng, self.t0)
        full = os.path.join(self.root, path)
        with open(full, "wb") as fh:
            fh.write(data)
        os.utime(full, (atime, mtime))
        entries[path] = Entry("Regular", len(data), mtime, atime, intact)

    def _mutate(self, entries, rng) -> None:
        """Removes, adds and atime changes between the OLD and NEW states."""
        leaf = sorted(p for p, e in entries.items() if e.kind == "Regular" and p.startswith("p"))
        n = max(1, len(leaf) // 66)
        for path in rng.sample(leaf, n):
            os.remove(os.path.join(self.root, path))
            del entries[path]
        for _ in range(n):
            self._add_file(entries, rng, rng.choice(self.leaf_dirs), LEAF_KINDS)
        kept = sorted(p for p in entries if p in self.old and entries[p].kind == "Regular"
                      and entries[p].intact is None and not p.startswith("fixture/"))
        for path in rng.sample(kept, max(1, len(kept) // 33)):
            e = entries[path]
            if e.atime > e.mtime and self.t0 - e.atime < USED_THRESHOLD_SECS:
                old_enough = self.t0 - e.mtime >= 60 * DAY
                e.atime = e.mtime + (1 + (self.t0 - 50 * DAY - e.mtime) // 2 if old_enough else 0)
            else:
                e.atime = self.t0 - int(rng.uniform(0.05, 0.3) * DAY)
            os.utime(os.path.join(self.root, path), (e.atime, e.mtime))

    def _touch_dirs(self) -> None:
        for d in self.dirs:
            os.utime(os.path.join(self.root, d), (self.dir_time, self.dir_time))

    # -- expectations ----------------------------------------------------

    def observed_atimes(self) -> tuple:
        """atimes of the files a degraded check reads, as the filesystem
        reports them now. Reading a file on a `relatime` mount moves an
        old atime to the present, so these may differ from the generated
        values once report/plan/recover/diff have hashed them."""
        out = []
        for path in self.checked_paths:
            atime = int(os.stat(os.path.join(self.root, path)).st_atime)
            if atime != self.new[path].atime:
                out.append((path, atime))
        return tuple(out)

    def moved_atime_files(self) -> int:
        """Regular files whose atime differs from the generated one."""
        return sum(
            1 for p, e in self.new.items()
            if e.kind == "Regular" and int(os.stat(os.path.join(self.root, p)).st_atime) != e.atime
        )

    def expected(self, moved: tuple) -> dict:
        """Expected outputs of every tree subcommand, given the atimes the
        benchmark's own reads have moved."""
        if moved not in self._expected:
            new = dict(self.new)
            for path, atime in moved:
                new[path] = replace(new[path], atime=atime)
            self._expected[moved] = self._expect(new)
        return self._expected[moved]

    def _expect(self, new: dict[str, Entry]) -> dict:
        now = self.t0
        root = os.path.abspath(self.root)
        paths = sorted(new)
        cats = {p: expected_category(p, new[p], now) for p in paths}
        tallies = {c: [0, 0] for c in CATEGORIES}
        reg = reg_bytes = never = never_bytes = 0
        for p in paths:
            e = new[p]
            tallies[cats[p]][0] += 1
            tallies[cats[p]][1] += e.size
            if e.kind == "Regular":
                reg += 1
                reg_bytes += e.size
                if e.atime <= e.mtime:
                    never += 1
                    never_bytes += e.size
        report = {
            "root": root,
            "total_files": len(paths),
            "total_bytes": sum(e.size for e in new.values()),
            "never_accessed_files_pct": (100.0 * never / reg) if reg else 0.0,
            "never_accessed_space_pct": (100.0 * never_bytes / reg_bytes) if reg_bytes else 0.0,
            "per_category": {c: {"files": n, "bytes": b} for c, (n, b) in tallies.items()},
            "warnings": [],
        }

        entries = []
        totals = {a: [0, 0] for a, _, _ in ACTIONS}
        hist = {"extension_histogram": {}, "size_histogram": {}, "age_histogram": {}}
        for p in paths:
            if cats[p] == "NotWaste":
                continue
            e = new[p]
            bits = next((b for rx, b in _MASKS if _matches(rx, p)), {})
            action = next(a for a, bit, _ in ACTIONS if bit is None or bits.get(bit, False))
            nbytes = 0 if action == "Reduce" else e.size
            entries.append({"path": p, "category": cats[p], "action": action, "bytes_affected": nbytes})
            totals[action][0] += 1
            totals[action][1] += nbytes
            ext = os.path.splitext(posixpath.basename(p))[1]
            keys = (
                ("extension_histogram", ext[1:].lower() if ext.startswith(".") else ""),
                ("size_histogram", "0" if e.size <= 0 else str(1 << (e.size - 1).bit_length())),
                ("age_histogram", _age_bucket(now - e.mtime)),
            )
            for name, key in keys:
                slot = hist[name].setdefault(key, {"files": 0, "bytes": 0})
                slot["files"] += 1
                slot["bytes"] += e.size
        disposed = totals["Dispose"][1]
        cycles = -(-disposed // ERASE_BLOCK_BYTES)
        energy = 0.0
        for action, _, weight in ACTIONS:
            energy += totals[action][1] * 1.0 * weight
        plan = {
            "root": root,
            "plan": {"entries": entries, "totals": {a: {"files": n, "bytes": b} for a, (n, b) in totals.items()}},
            "cost": {
                "bytes_erased": disposed,
                "erase_cycles_consumed": cycles,
                "endurance_fraction": cycles / MLC_ENDURANCE_CYCLES,
                "energy_units": energy,
            },
        }
        recover = {**hist, "waste_files": len(entries), "waste_bytes": sum(new[x["path"]].size for x in entries)}

        became, reactivated = [], []
        for p in paths:
            if p not in self.old:
                continue
            was = expected_category(p, self.old[p], now) != "NotWaste"
            now_waste = cats[p] != "NotWaste"
            if now_waste and not was:
                became.append(p)
            elif was and not now_waste:
                reactivated.append(p)
        diff = {
            "added": [p for p in paths if p not in self.old],
            "removed": sorted(p for p in self.old if p not in new),
            "became_waste": became,
            "reactivated": reactivated,
        }
        return {"entries": new, "paths": paths, "report": report, "plan": plan, "recover": recover, "diff": diff}

    def sizes(self) -> dict:
        return {
            "files": sum(1 for e in self.new.values() if e.kind == "Regular"),
            "records_old": len(self.old),
            "records_new": len(self.new),
            "directories": len(self.dirs),
            "bytes": sum(e.size for e in self.new.values() if e.kind == "Regular"),
            "checked_files": len(self.checked_paths),
        }


def _age_bucket(age_secs: int) -> str:
    days = max(0, age_secs) // DAY
    return next((label for edge, label in AGE_BUCKETS if days < edge), "365d+")


def _rules_obj() -> dict:
    return {
        "not_waste_globs": list(NOT_WASTE_GLOBS),
        "unintentional_globs": list(UNINTENTIONAL_GLOBS),
        "unwanted_globs": list(UNWANTED_GLOBS),
        "degraded_checks": [{"glob": g, "sha256": hashlib.sha256(p).hexdigest()} for g, p in DEGRADED_CHECKS],
    }


def _fixture_model(total: int, base: int) -> dict[str, Entry]:
    """What `build_never_accessed_tree` documents it writes: never-read
    files first (atime == mtime), then read files (atime 7 days later),
    bytes split evenly with the remainder going to the first files."""
    files_pct, space_pct = FIXTURE_PROFILE
    never = round(total * files_pct / 100.0)
    permille = round(space_pct * 10)

    def split(nbytes, parts):
        q, r = divmod(nbytes, parts)
        return [q + 1 if i < r else q for i in range(parts)]

    sizes = split(permille * FIXTURE_BYTE_UNIT, never) + split((1000 - permille) * FIXTURE_BYTE_UNIT, total - never)
    return {
        f"fixture/f{i:06d}.dat": Entry("Regular", size, base, base if i < never else base + 7 * DAY)
        for i, size in enumerate(sizes)
    }


def check_scan(tree: Tree, moved: tuple, argv_output: str, text: str) -> list[str]:
    obj = json.loads(text)
    want = {"root": os.path.abspath(tree.root), "records": len(tree.new), "warnings": [], "output": argv_output}
    if obj != want:
        return [f"scan: got {obj}, want {want}"]
    return check_snapshot(tree, moved)


def check_snapshot(tree: Tree, moved: tuple) -> list[str]:
    """Every record of the NEW snapshot file against the model. Directory
    atimes are not checked: listing a directory moves its atime."""
    exp = tree.expected(moved)["entries"]
    with open(tree.new_snap, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        records = [json.loads(line) for line in fh]
    problems = []
    if header.get("root") != os.path.abspath(tree.root) or header.get("warnings") != []:
        problems.append(f"snapshot header: {header}")
    got_paths = [r["path"] for r in records]
    if got_paths != sorted(exp):
        return problems + [f"snapshot paths differ: {len(got_paths)} records, want {len(exp)}"]
    for r in records:
        e = exp[r["path"]]
        if (r["kind"], r["size_bytes"], r["mtime"]) != (e.kind, e.size, e.mtime) or (
            e.kind != "Directory" and r["atime"] != e.atime
        ):
            problems.append(f"snapshot record {r} does not match {e}")
            if len(problems) > 5:
                break
    return problems


def check_json(name: str, want: dict, text: str) -> list[str]:
    got = json.loads(text)
    if got == want:
        return []
    diff_keys = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
    return [f"{name}: output differs from expectation in {diff_keys}"]


# -- dedup corpus ----------------------------------------------------------

MIN_CHUNK, MAX_CHUNK = 2 * 1024, 64 * 1024  # the `dedup` defaults


@dataclass(frozen=True)
class CorpusSize:
    large: int  # bytes in each large file
    tiny: int  # number of files smaller than the minimum chunk
    edits: int  # inserts/deletes per version


def _edit(data: bytes, rng: random.Random, n: int) -> bytes:
    b = bytearray(data)
    for _ in range(n):
        pos = rng.randrange(len(b))
        if rng.random() < 0.5:
            b[pos:pos] = rng.randbytes(rng.randint(1, 256))
        else:
            del b[pos : pos + rng.randint(1, 256)]
    return bytes(b)


class Corpus:
    """Versions of a base blob, an exact copy, unique random data, a file
    of zero runs longer than the maximum chunk, and a few tiny files."""

    def __init__(self, dest: str, seed: int, size: CorpusSize):
        self.root = os.path.join(dest, "corpus")
        os.makedirs(self.root)
        rng = random.Random(seed * 7919 + 2)
        base = rng.randbytes(size.large)
        v1 = _edit(base, rng, size.edits)
        v2 = _edit(v1, rng, size.edits)
        run = max(size.large // 4, 3 * MAX_CHUNK // 2)
        zero_random = [rng.randbytes(size.large // 4) for _ in range(2)]
        files = {
            "base.bin": base,
            "base-v1.bin": v1,
            "base-v2.bin": v2,
            "base-copy.bin": base,
            "unique.bin": rng.randbytes(size.large),
            "zeros.bin": zero_random[0] + bytes(run) + zero_random[1] + bytes(run),
        }
        for i in range(size.tiny):
            files[f"tiny-{i}.bin"] = rng.randbytes(rng.randint(1, MIN_CHUNK - 1))
        for name, data in files.items():
            with open(os.path.join(self.root, name), "wb") as fh:
                fh.write(data)
        self.sizes_by_file = {name: len(data) for name, data in files.items()}
        self.logical = sum(self.sizes_by_file.values())
        # Bytes no other file shares: every one of them lands in a stored chunk.
        self.unique_floor = (len(base) + size.large + sum(len(z) for z in zero_random)
                             + sum(len(d) for n, d in files.items() if n.startswith("tiny")))
        # Each edit can unshare at most a few chunks around it; each zero
        # run adds at most two distinct chunks at its edges.
        self.physical_ceiling = self.unique_floor + 2 * 3 * size.edits * MAX_CHUNK + 2 * 2 * MAX_CHUNK

    def sizes(self) -> dict:
        return {"files": len(self.sizes_by_file), "bytes": self.logical,
                "largest_file_bytes": max(self.sizes_by_file.values())}


def check_dedup(corpus: Corpus, text: str) -> list[str]:
    obj = json.loads(text)
    problems = []
    if set(obj) != {"objects", "chunks", "logical_bytes", "physical_bytes", "dedup_ratio", "skipped"}:
        return [f"dedup: unexpected keys {sorted(obj)}"]
    if obj["objects"] != len(corpus.sizes_by_file) or obj["logical_bytes"] != corpus.logical or obj["skipped"]:
        problems.append(f"dedup: objects/logical/skipped {obj['objects']}/{obj['logical_bytes']}/{obj['skipped']}")
    phys, chunks = obj["physical_bytes"], obj["chunks"]
    if not corpus.unique_floor <= phys <= min(corpus.logical, corpus.physical_ceiling):
        problems.append(f"dedup: physical_bytes {phys} outside [{corpus.unique_floor}, {corpus.physical_ceiling}]")
    if not phys / MAX_CHUNK <= chunks <= phys / MIN_CHUNK + obj["objects"]:
        problems.append(f"dedup: {chunks} chunks cannot hold {phys} bytes within the chunk size limits")
    if obj["dedup_ratio"] != (obj["logical_bytes"] / phys if phys else 1.0):
        problems.append(f"dedup: ratio {obj['dedup_ratio']} is not logical/physical")
    return problems


# -- landfill trace --------------------------------------------------------


@dataclass(frozen=True)
class LandfillSize:
    ops: int
    hot_keys: int
    adv_every: int


class LandfillTrace:
    """PUT/GET/ADV trace with Zipf-distributed keys: a hot set that fits in
    capacity is overwritten and re-read (stale heap records pile up), a
    cold stream larger than capacity forces evictions in bursts, and ADV
    ops make unread entries fade between the bursts."""

    FADE_EPOCHS = 2

    def __init__(self, dest: str, seed: int, size: LandfillSize):
        self.path = os.path.join(dest, "landfill.trace")
        rng = random.Random(seed * 7919 + 3)
        hot_sizes = [rng.randint(512, 4096) for _ in range(size.hot_keys)]
        cum = list(accumulate(1 / (k + 1) ** 1.1 for k in range(size.hot_keys)))
        self.capacity = sum(hot_sizes) * 3 // 2
        ops, lines, cold = [], [], 0
        for i in range(size.ops):
            # Every 4th epoch is a burst of larger cold values that evicts;
            # the quiet epochs between let unread entries fade.
            burst = (i // size.adv_every) % 4 == 3
            if i % size.adv_every == size.adv_every - 1:
                ops.append(("ADV", 1))
            elif rng.random() < 0.5:
                if rng.random() >= (0.6 if burst else 0.25):
                    k = rng.choices(range(size.hot_keys), cum_weights=cum)[0]
                    ops.append(("PUT", f"h{k}", hot_sizes[k] + rng.randint(-256, 256)))
                else:
                    ops.append(("PUT", f"c{cold}", rng.randint(4096, 24576) if burst else rng.randint(1024, 8192)))
                    cold += 1
            elif rng.random() < 0.8 or cold == 0:
                ops.append(("GET", f"h{rng.choices(range(size.hot_keys), cum_weights=cum)[0]}"))
            else:
                ops.append(("GET", f"c{rng.randrange(max(0, cold - 2000), cold)}"))
            lines.append(" ".join(map(str, ops[-1])))
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        self.ops = ops

    def argv(self) -> list[str]:
        return ["landfill", "--trace", self.path, "--capacity", str(self.capacity), "--fade", str(self.FADE_EPOCHS)]

    def sizes(self) -> dict:
        kinds = [op[0] for op in self.ops]
        return {"ops": len(self.ops), "puts": kinds.count("PUT"), "gets": kinds.count("GET"),
                "advs": kinds.count("ADV"), "capacity_bytes": self.capacity}


class LandfillOracle:
    """What the fading store must do, kept as buckets of keys by the epoch
    of their last access: eviction takes the smallest (epoch, key), and an
    epoch advance drops every entry last read before epoch - lifetime."""

    def __init__(self, capacity: int, fade: int):
        self.capacity, self.fade = capacity, fade
        self.live: dict[str, tuple[int, int]] = {}  # key -> (size, last access epoch)
        self.by_epoch: dict[int, set] = {}
        self.epoch = self.bytes = self.evictions = self.fades = 0
        self._sorted: tuple[int, list, int] | None = None  # (epoch, its keys sorted, next index)

    def _insert(self, key: str, size: int) -> None:
        self.live[key] = (size, self.epoch)
        self.by_epoch.setdefault(self.epoch, set()).add(key)
        self.bytes += size

    def _remove(self, key: str) -> int:
        size, ep = self.live.pop(key)
        bucket = self.by_epoch[ep]
        bucket.discard(key)
        if not bucket:
            del self.by_epoch[ep]
        self.bytes -= size
        return size

    def _oldest(self) -> str:
        ep = min(self.by_epoch)
        if ep == self.epoch:  # the current bucket still grows: no cached order
            return min(self.by_epoch[ep])
        if self._sorted is None or self._sorted[0] != ep:
            self._sorted = (ep, sorted(self.by_epoch[ep]), 0)
        _, keys, i = self._sorted
        while keys[i] not in self.by_epoch[ep]:
            i += 1
        self._sorted = (ep, keys, i)
        return keys[i]

    def put(self, key: str, size: int) -> None:
        if key in self.live:
            self._remove(key)
        while self.bytes + size > self.capacity:
            self._remove(self._oldest())
            self.evictions += 1
        self._insert(key, size)

    def get(self, key: str) -> str:
        if key not in self.live:
            return "faded"
        size, ep = self.live[key]
        if ep != self.epoch:
            self._remove(key)
            self._insert(key, size)
        return "hit"

    def advance(self, n: int) -> tuple[int, int]:
        self.epoch += n
        faded = reclaimed = 0
        for ep in sorted(e for e in self.by_epoch if e < self.epoch - self.fade):
            for key in list(self.by_epoch[ep]):
                reclaimed += self._remove(key)
                faded += 1
        self.fades += faded
        return faded, reclaimed

    def stats(self) -> dict:
        return {"live_entries": len(self.live), "live_bytes": self.bytes, "capacity_bytes": self.capacity,
                "current_epoch": self.epoch, "lifetime_evictions": self.evictions, "lifetime_fades": self.fades}


def check_landfill(trace: LandfillTrace, fh) -> tuple[list[str], dict]:
    """Stream the event lines against the oracle's replay of the trace.
    Returns problems and the run's exact counts (hit ratio, evictions,
    fades)."""
    oracle = LandfillOracle(trace.capacity, trace.FADE_EPOCHS)
    gets = hits = 0
    n = -1
    for n, line in enumerate(fh):
        if n >= len(trace.ops):
            return ["landfill: more events than ops"], {}
        op = trace.ops[n]
        if op[0] == "PUT":
            oracle.put(op[1], op[2])
            want = {"op": "PUT", "key": op[1], "size": op[2], "outcome": "stored"}
        elif op[0] == "GET":
            want = {"op": "GET", "key": op[1], "result": oracle.get(op[1])}
            gets += 1
            hits += want["result"] == "hit"
        else:
            faded, reclaimed = oracle.advance(op[1])
            want = {"op": "ADV", "n": op[1], "entries_faded": faded, "bytes_reclaimed": reclaimed}
        want["index"] = n
        want["stats"] = oracle.stats()
        got = json.loads(line)
        if got != want or not got["stats"]["live_bytes"] <= trace.capacity:
            return [f"landfill: event {n} is {got}, want {want}"], {}
    if n + 1 != len(trace.ops):
        return [f"landfill: {n + 1} events for {len(trace.ops)} ops"], {}
    return [], {"hit_ratio": hits / gets if gets else 0.0, "evictions": oracle.evictions, "fades": oracle.fades}


# -- penalty workload ------------------------------------------------------


@dataclass(frozen=True)
class PenaltySize:
    producers: int
    ticks: int


class PenaltyWorkload:
    """Producers whose requests outrun the bandwidth on most ticks, each
    with its own waste fractions, and a few base-weight overrides."""

    BANDWIDTH = 1_000_000
    ALPHA = "0.5"
    WEIGHTS = {"p01": "2", "p02": "1/2", "p03": "3.5"}
    FRACTIONS = ("0", "0.05", "0.1", "0.25", "0.5", "0.75", "0.9", "1")

    def __init__(self, dest: str, seed: int, size: PenaltySize):
        self.path = os.path.join(dest, "penalty.trace")
        self.ticks = size.ticks
        rng = random.Random(seed * 7919 + 4)
        pids = [f"p{k:02d}" for k in range(size.producers)]
        fractions = {pid: rng.sample(self.FRACTIONS, 2) for pid in pids}
        # About 1.1x the bandwidth for the first 80% of ticks: the backlog
        # builds up, then drains before the end.
        mean = self.BANDWIDTH * 1.1 / (size.producers * 0.4 * 1.05)
        self.events = []
        for tick in range(int(size.ticks * 0.8)):
            for pid in pids:
                if rng.random() < 0.4:
                    self.events.append((tick, pid, int(rng.uniform(0.3, 1.8) * mean), rng.choice(fractions[pid])))
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{t} {p} {r} {f}\n" for t, p, r, f in self.events)
        self.pids = sorted({e[1] for e in self.events})

    def argv(self) -> list[str]:
        weights = [a for pid, w in self.WEIGHTS.items() if pid in self.pids for a in ("--weight", f"{pid}={w}")]
        return ["--format", "json", "penalty-sim", "--trace", self.path, "--alpha", self.ALPHA,
                "--bandwidth", str(self.BANDWIDTH), "--ticks", str(self.ticks), *weights]

    def per_tick_demand(self) -> list[int]:
        demand = [0] * self.ticks
        for t, _, r, _ in self.events:
            demand[t] += r
        return demand

    def sizes(self) -> dict:
        backlog, overloaded = 0, 0
        for d in self.per_tick_demand():
            backlog += d
            overloaded += backlog > self.BANDWIDTH
            backlog -= min(self.BANDWIDTH, backlog)
        return {"producers": len(self.pids), "ticks": self.ticks, "events": len(self.events),
                "overloaded_ticks": overloaded}


def check_penalty(work: PenaltyWorkload, text: str) -> tuple[list[str], dict]:
    """Delivery per tick must equal min(bandwidth, backlog); the ledgers
    and penalty factors are recomputed exactly."""
    obj = json.loads(text)
    bw = work.BANDWIDTH
    totals = obj["delivered_per_tick_total"]
    problems = []
    backlog = 0
    for t, demand in enumerate(work.per_tick_demand()):
        backlog += demand
        want = min(bw, backlog)
        if t >= len(totals) or totals[t] != want:
            problems.append(f"penalty: tick {t} delivered {totals[t] if t < len(totals) else None}, want {want}")
            break
        backlog -= want
    alpha = Fraction(work.ALPHA)
    requested = {pid: [0] * work.ticks for pid in work.pids}
    useful = {pid: Fraction(0) for pid in work.pids}
    waste = {pid: Fraction(0) for pid in work.pids}
    for t, pid, r, f in work.events:
        requested[pid][t] += r
        waste[pid] += r * Fraction(f)
        useful[pid] += r - r * Fraction(f)
    if sorted(obj["producers"]) != work.pids or len(totals) != work.ticks:
        return problems + ["penalty: wrong producers or tick count"], {}
    summed = [0] * work.ticks
    for pid in work.pids:
        r = obj["producers"][pid]
        series = r["delivered_per_tick"]
        backlog, done, last = 0, None, max(t for t, p, _, _ in work.events if p == pid)
        for t in range(work.ticks):
            backlog += requested[pid][t] - series[t]
            summed[t] += series[t]
            if backlog < 0:
                problems.append(f"penalty: {pid} got more than it asked by tick {t}")
                break
            if done is None and backlog == 0 and t >= last:
                done = t
        factor = float(1 / (1 + alpha * waste[pid] / max(1, useful[pid] + waste[pid])))
        want = {
            "requested_total": sum(requested[pid]),
            "delivered_total": sum(series),
            "completion_tick": done,
            "useful_bytes": _num(useful[pid]),
            "waste_bytes": _num(waste[pid]),
            "final_factor": factor,
        }
        got = {k: r[k] for k in want}
        if got != want:
            problems.append(f"penalty: {pid} {got} != {want}")
    if summed != totals:
        problems.append("penalty: per-producer deliveries do not add up to the tick totals")
    return problems[:5], {"delivered_bytes": sum(totals)}


def _num(x: Fraction):
    return int(x) if x.denominator == 1 else float(x)
