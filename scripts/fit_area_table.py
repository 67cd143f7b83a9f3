#!/usr/bin/env python3
"""Fit a*n^b + c to the embedded minimum-area table and compare the residual
against the reference fit (3.3262, 1.047, -181209.1337). Exits 1 if the
fitted sse is worse than the reference's."""

import sys

from ternarydraw.pareto import REFERENCE_AREA_TABLE, fit_power_law


def main() -> int:
    points = [(float(n), float(area)) for _, n, area in REFERENCE_AREA_TABLE]
    fit = fit_power_law(points)
    ra, rb, rc = 3.3262, 1.047, -181209.1337
    ref_sse = sum((ra * n ** rb + rc - y) ** 2 for n, y in points)
    print(f"fitted:    a={fit.a:.4f} b={fit.b:.4f} c={fit.c:.4f} sse={fit.sse:.6g}")
    print(f"reference: a={ra} b={rb} c={rc} sse={ref_sse:.6g}")
    worse = fit.sse > ref_sse
    print("fitted sse is", "WORSE" if worse else "<= reference")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
