"""Walk a messy directory, classify every entry, and total the waste.

Builds a small synthetic project directory (LaTeX build leftovers,
stale downloads, a corrupted archive), scans it, and prints the same
numbers `wastekit report` would.
"""

import hashlib
import os
import tempfile
import time

from wastekit import RuleSet, ScanOptions, WasteCategory, classify, report, scan, snapshot_digest_provider

now = int(time.time())
# Removed when the script ends, even if it fails part way.
workdir = tempfile.TemporaryDirectory(prefix="wastekit-demo-")
root = workdir.name

YEAR = 365 * 86400


def put(rel, data, mtime, atime=None):
    path = os.path.join(root, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(data)
    os.utime(path, (atime if atime is not None else mtime, mtime))
    return path


# a paper being written: the .tex is wanted, the .aux/.log are by-products
put("paper/draft.tex", b"\\documentclass{article}" * 40, now - 3600, now - 60)
put("paper/draft.aux", b"\\relax" * 100, now - 3600)
put("paper/draft.log", b"This is pdfTeX" * 200, now - 3600)

# downloads nobody has touched in two years
put("downloads/installer.run", b"\x7fELF" + b"\0" * 20000, now - 2 * YEAR, now - 2 * YEAR + 5)
put("downloads/holiday.jpg", os.urandom(4096), now - 2 * YEAR, now - 30 * 86400)

# an archive whose content no longer matches its recorded digest
archive = put("backup/photos.tar", b"ustar corrupted bits", now - YEAR)

# things that should never be flagged
put("src/main.py", b"print('hi')\n", now - 86400, now - 10)

rules = RuleSet(
    not_waste_globs=("src/*",),
    unintentional_globs=("*.aux", "*.log"),
    unwanted_globs=("downloads/*",),
    degraded_checks=(("backup/*.tar", hashlib.sha256(b"the original bytes").hexdigest()),),
)

snapshot = scan(root, ScanOptions())
print(f"scanned {len(snapshot.records)} entries under {root}\n")

# Degraded checks read each file under the scan root, as `report` does.
with snapshot_digest_provider(snapshot) as digest:
    for record in snapshot.records:
        category = classify(record, rules, now=snapshot.taken_at, digest_provider=digest)
        print(f"  {category.value:<14} {record.path}")

rep = report(snapshot, rules)
print(f"\n% of files never accessed: {rep.never_accessed_files_pct:.1f}")
print(f"% of used space never accessed: {rep.never_accessed_space_pct:.1f}")
print("\nper category (files / bytes):")
for cat in WasteCategory:
    files, nbytes = rep.per_category[cat]
    if files:
        print(f"  {cat.value:<14} {files:>3} / {nbytes}")

workdir.cleanup()
