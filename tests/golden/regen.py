"""Rewrite the expected files of `tests/test_golden.py` from the current
code: `python tests/golden/regen.py`. Run it only for an intended output
change, and say in CHANGES.md which files changed and why."""

import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")]

from test_golden import GOLDEN_DIR, render_all  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="wastekit-golden-") as work:
        outputs = render_all(work)
    for name in os.listdir(GOLDEN_DIR):
        if name.endswith(".txt") and name[:-4] not in outputs:
            os.unlink(os.path.join(GOLDEN_DIR, name))
    for name, text in outputs.items():
        with open(os.path.join(GOLDEN_DIR, name + ".txt"), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    print(f"wrote {len(outputs)} expected files to {GOLDEN_DIR}")


if __name__ == "__main__":
    main()
