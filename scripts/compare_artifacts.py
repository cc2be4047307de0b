#!/usr/bin/env python3
"""Compare two artifact trees, such as two --out-root directories of
scripts/run_experiments.py.

    python scripts/compare_artifacts.py OLD NEW

Prints one line per file: "identical" when the bytes match, otherwise the
largest relative change over the numeric cells, or what else differs (the
text around the numbers, the number of cells, a file present on one side
only).  manifest.json files are skipped, since they carry wall-clock
timings.  Exits 1 if any file differs.
"""

import argparse
import math
import re
import sys
from pathlib import Path

NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|NaN|-?Infinity|-?inf|nan")
SKIPPED = "manifest.json"  # carries wall-clock timings


def _files(root: Path) -> set:
    return {
        p.relative_to(root).as_posix()
        for p in root.rglob("*")
        if p.is_file() and p.name != SKIPPED
    }


def compare(old: bytes, new: bytes) -> str:
    """'identical', or how the numeric cells or the text around them differ."""
    if old == new:
        return "identical"
    if NUMBER.sub(b"#", old) != NUMBER.sub(b"#", new):
        return "text differs outside the numeric cells"
    worst = 0.0
    for a, b in zip(NUMBER.findall(old), NUMBER.findall(new)):
        x, y = float(a), float(b)
        if x == y:  # equal values in other spellings, such as 0 and -0
            continue
        finite = math.isfinite(x) and math.isfinite(y)
        worst = max(worst, abs(x - y) / max(abs(x), abs(y)) if finite else math.inf)
    return f"largest relative change {worst:.3g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Compare two artifact trees file by file.")
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    args = ap.parse_args(argv)
    old_files, new_files = _files(args.old), _files(args.new)
    differing = 0
    for name in sorted(old_files | new_files):
        if name not in new_files:
            verdict = "only in OLD"
        elif name not in old_files:
            verdict = "only in NEW"
        else:
            verdict = compare((args.old / name).read_bytes(), (args.new / name).read_bytes())
        differing += verdict != "identical"
        print(f"{name}: {verdict}")
    total = len(old_files | new_files)
    print(f"{total - differing} of {total} files identical ({SKIPPED} skipped)")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
