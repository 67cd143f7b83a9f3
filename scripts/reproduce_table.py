#!/usr/bin/env python3
"""Recompute the minimum-area table for 1-2 drawings of complete ternary
trees in one walk up the levels and diff it against the embedded reference
values. Each row gives the level's frontier size, the time to load or compute
it, and the process's peak RSS so far."""

import argparse
import resource
import sys
import time

from ternarydraw.pareto import REFERENCE_AREA_TABLE, levels


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--h-max", type=int, default=20)
    ap.add_argument("--cache-dir", default=None)
    args = ap.parse_args()

    reference = {h: area for h, _, area in REFERENCE_AREA_TABLE}
    print(f"{'h':>3} {'n':>12} {'frontier':>9} {'min area':>14} "
          f"{'reference':>14} {'time (s)':>9} {'peak RSS (MB)':>14}")
    mismatches = 0
    start = t0 = time.perf_counter()
    for fr in levels(args.h_max, args.cache_dir):
        dt = time.perf_counter() - t0
        area, _ = fr.min_area()
        ref = reference.get(fr.h)
        mark = "" if ref is None or ref == area else "  <-- MISMATCH"
        mismatches += bool(mark)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
        print(f"{fr.h:>3} {(3 ** fr.h - 1) // 2:>12} {len(fr.pairs):>9} {area:>14} "
              f"{ref if ref is not None else '-':>14} {dt:>9.2f} {rss_mb:>14.0f}{mark}",
              flush=True)
        t0 = time.perf_counter()
    print(f"total {time.perf_counter() - start:.2f} s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
