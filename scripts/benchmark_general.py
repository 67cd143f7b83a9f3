#!/usr/bin/env python3
"""Benchmark the general layout and report measured height against the
2*n^c - 1 bound across tree sizes. The tree column times random_ternary_tree,
its validation included. With --verify, each drawing also gets one
build_report (all verifier checks and its extents), timed in the verify
column, one drawing_json of it, timed in the write column, and one read of
those bytes by read_drawing_json, timed in the read column. The peak RSS
column is the process's peak so far (getrusage), so a row's figure covers
its own size and every size before it: for one size's peak, run that size
alone, e.g. ``--sizes 1000000 --seeds 1``. The frames
column is the mean number of decompositions the layout performs, levels the
most frame levels (the frame depth + 1, one batch of numpy passes each), and
slack the largest ratio of an attachment size to its bound in the paper's
size inequalities (a, b < m/p and s <= (m - a - b)/3 on frames with a
general P part, r + s <= 2(p - 1)m/(3p) on every frame) over the row's
frames. All three are read from frame_stats, untimed, on the same trees
built again after the row's peak RSS is read."""

import argparse
import resource
import time

from ternarydraw.geometry import drawing_json, extents, read_drawing_json
from ternarydraw.layout_general import P, draw_general, frame_stats, max_rows
from ternarydraw.tree import TernaryTree, random_ternary_tree
from ternarydraw.verify import build_report


def count_frames(t: TernaryTree) -> tuple[int, int, float]:
    """(decompositions, frame levels, slack) of the general layout of t, at
    the paper's p = 9.956."""
    s = frame_stats(t)
    g = s.a >= 0
    m = s.m[g]
    ratios = (s.a[g] * P / m, s.b[g] * P / m, 3 * s.s[g] / (m - s.a[g] - s.b[g]),
              (s.r + s.s) * 3 * P / (2 * (P - 1) * s.m))
    return len(s.level), int(s.level.max(initial=-1)) + 1, max(r.max(initial=0) for r in ratios)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sizes", type=int, nargs="+",
                    default=[100, 1000, 10000, 100000])
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--verify", action="store_true")
    args = ap.parse_args()
    if min(args.sizes) < 1:
        ap.error("--sizes must all be at least 1")
    if args.seeds < 1:
        ap.error("--seeds must be at least 1")

    print(f"{'n':>8} {'tree (s)':>9} {'layout (s)':>11} {'peak RSS (MB)':>14} {'verify (s)':>11} {'write (s)':>10} {'read (s)':>9} {'width':>8} "
          f"{'height':>7} {'bound':>7} {'ratio':>6} {'frames':>7} {'levels':>6} {'slack':>6}")
    for n in args.sizes:
        t_tree = t_layout = t_verify = t_write = t_read = 0.0
        worst_h = worst_ratio = 0
        worst_w = 0
        bound = max_rows(n)
        for seed in range(args.seeds):
            t0 = time.perf_counter()
            t = random_ternary_tree(n, seed)
            t_tree += time.perf_counter() - t0
            t0 = time.perf_counter()
            d = draw_general(t)
            t_layout += time.perf_counter() - t0
            if args.verify:
                t0 = time.perf_counter()
                r = build_report(d)
                t_verify += time.perf_counter() - t0
                if not (r.planar and r.top_visible):
                    raise SystemExit(f"n={n} seed={seed}: drawing failed verification")
                t0 = time.perf_counter()
                data = drawing_json(d)
                t_write += time.perf_counter() - t0
                data = data.encode()
                t0 = time.perf_counter()
                read = read_drawing_json(data)
                t_read += time.perf_counter() - t0
                if read != d:
                    raise SystemExit(f"n={n} seed={seed}: drawing_json's bytes read back wrong")
                del data, read
                e = r.extents
            else:
                e = extents(d)
            if e.height / bound > worst_ratio:
                worst_ratio = e.height / bound
                worst_h, worst_w = e.height, e.width
        verify = f"{t_verify / args.seeds:.4f}" if args.verify else "-"
        write = f"{t_write / args.seeds:.4f}" if args.verify else "-"
        read = f"{t_read / args.seeds:.4f}" if args.verify else "-"
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KB on Linux
        del t, d
        frames, levels, slack = zip(*(count_frames(random_ternary_tree(n, seed))
                                      for seed in range(args.seeds)))
        print(f"{n:>8} {t_tree / args.seeds:>9.4f} {t_layout / args.seeds:>11.4f} {rss:>14.1f} {verify:>11} {write:>10} {read:>9} {worst_w:>8} "
              f"{worst_h:>7} {bound:>7} {worst_ratio:>6.2f} {round(sum(frames) / args.seeds):>7} {max(levels):>6} {max(slack):>6.3f}")


if __name__ == "__main__":
    main()
