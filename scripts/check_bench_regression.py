#!/usr/bin/env python3
"""Gate host speed on fresh BENCH_*.json experiment reports.

Both checks are about how fast the host ran the benches, never about
what the model computed: the simulation cells are deterministic, and
check_bench_identity.py requires them to match the committed
baselines exactly.

* Wall-time ceilings. ``wall_ceilings.json`` in the baseline
  directory maps each gated simulation grid to the most
  ``profile.wall_seconds`` its fresh report may show. Each ceiling
  is the grid's measured wall time with generous headroom (see
  bench/baselines/README.md), so a slow CI runner passes while an
  order-of-magnitude harness regression fails.
* RSA speedup floors. ``rsa_throughput``'s ``speedup-<bits>`` cells
  (fast engine over the retained schoolbook engine, both timed in the
  same process, so the ratio transfers across machines) may fall at
  most 25% (and at least 0.5) below the committed floors in
  ``BENCH_rsa_throughput.json``. Absolute ops/s are informational.

Exit status: 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SPEEDUP_PREFIX = "speedup-"
SPEEDUP_TOLERANCE = 0.25
SPEEDUP_ABS_SLACK = 0.5


def load(path: Path):
    with path.open() as fh:
        return json.load(fh)


def check_ceilings(baseline_dir: Path, current_dir: Path, failures):
    ceilings = load(baseline_dir / "wall_ceilings.json")
    for name, ceiling in sorted(ceilings.items()):
        path = current_dir / f"BENCH_{name}.json"
        if not path.exists():
            failures.append(f"{name}: {path} was not produced")
            continue
        wall = load(path)["profile"]["wall_seconds"]
        status = "ok" if wall <= ceiling else "TOO SLOW"
        print(f"{name}: {wall:.3f} s wall (ceiling {ceiling:g} s)  "
              f"{status}")
        if wall > ceiling:
            failures.append(
                f"{name}: the grid took {wall:.3f} s, over its "
                f"{ceiling:g} s ceiling; the harness got slower or "
                f"the ceiling needs re-recording "
                f"(bench/baselines/README.md)")


def speedup_cells(doc):
    return {
        (cell["variant"], cell["bench"]): cell["measured"]
        for cell in doc["cells"]
        if cell["variant"].startswith(SPEEDUP_PREFIX)
    }


def check_rsa_speedups(baseline_dir: Path, current_dir: Path, failures):
    file = "BENCH_rsa_throughput.json"
    if not (current_dir / file).exists():
        failures.append(f"rsa_throughput: {current_dir / file} was "
                        f"not produced")
        return
    floors = speedup_cells(load(baseline_dir / file))
    current = speedup_cells(load(current_dir / file))
    for (variant, bench), floor in sorted(floors.items()):
        if (variant, bench) not in current:
            failures.append(f"rsa_throughput: ({variant}, {bench}) is "
                            f"missing from the current report")
            continue
        value = current[(variant, bench)]
        least = floor - max(SPEEDUP_TOLERANCE * abs(floor),
                            SPEEDUP_ABS_SLACK)
        status = "ok" if value >= least else "TOO SLOW"
        print(f"rsa_throughput {variant} {bench}: {value:.2f}x "
              f"(floor {floor:g}x, least {least:g}x)  {status}")
        if value < least:
            failures.append(
                f"rsa_throughput: ({variant}, {bench}) fell to "
                f"{value:.2f}x, below {least:g}x")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--baseline-dir", type=Path, default=Path("bench/baselines"),
        help="directory with wall_ceilings.json and the committed "
             "BENCH_rsa_throughput.json")
    parser.add_argument(
        "--current-dir", type=Path, default=Path("."),
        help="directory with freshly produced BENCH_*.json reports")
    args = parser.parse_args()

    failures: list[str] = []
    check_ceilings(args.baseline_dir, args.current_dir, failures)
    check_rsa_speedups(args.baseline_dir, args.current_dir, failures)

    if failures:
        print(f"\nperf gate FAILED ({len(failures)} problem(s)):",
              file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
