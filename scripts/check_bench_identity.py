#!/usr/bin/env python3
"""Check that simulation reports reproduce their baselines exactly.

The simulation reports are deterministic cycle counts, so their
``cells`` must match the committed baselines exactly: every measured
value, stat and extra, bit for bit. Only the top-level ``profile``
object (host wall-clock) may differ, and it lives outside ``cells``.
A report run with other warmup/measure lengths than its baseline is
named as such before its cell diffs are listed.

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

RUN_LENGTHS = ("warmup_instructions", "measure_instructions")


def load(path: Path):
    with path.open() as fh:
        return json.load(fh)


def canonical_cells(doc) -> list[str]:
    """One canonical JSON line per cell (floats keep their exact
    value through json's shortest round-trip repr)."""
    return [json.dumps(cell, sort_keys=True) for cell in doc["cells"]]


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
        base_doc = load(args.baseline_dir / file)
        current_doc = load(args.current_dir / file)
        base = canonical_cells(base_doc)
        current = canonical_cells(current_doc)
        if base == current:
            print(f"{name}: {len(base)} cells identical")
            continue
        failed = True
        print(f"{name}: CELLS DIFFER from the baseline")
        for key in RUN_LENGTHS:
            recorded = base_doc["options"][key]
            ran = current_doc["options"][key]
            if recorded != ran:
                print(f"  option {key} is {ran} but the baseline was "
                      f"recorded with {recorded}; rerun with the "
                      f"baseline's SECPROC_* settings")
        if len(base) != len(current):
            print(f"  cell count {len(base)} -> {len(current)}")
        for old, new in zip(base, current):
            if old != new:
                print(f"  - {old}\n  + {new}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
