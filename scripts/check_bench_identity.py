#!/usr/bin/env python3
"""Check that simulation reports reproduce their baselines exactly.

The perf gate (check_bench_regression.py) allows each measured value
a relative tolerance, so a small deliberate or accidental drift in
the model passes it. The simulation reports are deterministic cycle
counts, so their ``cells`` must match the committed baselines exactly:
every measured value, stat and extra, bit for bit. Only the
top-level ``profile`` object (host wall-clock) may differ, and it
lives outside ``cells``.

Usage:

    python3 scripts/check_bench_identity.py --current-dir build \\
        --baseline-dir bench/baselines fig05_snc_comparison ...

Exit status: 0 when every named report matches, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def canonical_cells(path: Path) -> list[str]:
    """One canonical JSON line per cell (floats keep their exact
    value through json's shortest round-trip repr)."""
    with path.open() as fh:
        cells = json.load(fh)["cells"]
    return [json.dumps(cell, sort_keys=True) for cell in cells]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--current-dir", type=Path, required=True)
    parser.add_argument("--baseline-dir", type=Path, required=True)
    parser.add_argument("reports", nargs="+",
                        help="experiment names (BENCH_<name>.json)")
    args = parser.parse_args()

    failed = False
    for name in args.reports:
        file = f"BENCH_{name}.json"
        base = canonical_cells(args.baseline_dir / file)
        current = canonical_cells(args.current_dir / file)
        if base == current:
            print(f"{name}: {len(base)} cells identical")
            continue
        failed = True
        print(f"{name}: CELLS DIFFER from the baseline")
        if len(base) != len(current):
            print(f"  cell count {len(base)} -> {len(current)}")
        for old, new in zip(base, current):
            if old != new:
                print(f"  - {old}\n  + {new}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
