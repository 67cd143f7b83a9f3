"""Acceptance gate: one test per top-level criterion, each printing a single
pass/fail line."""

import math
import random

import numpy as np
import pytest

from conftest import min_area_drawing
from ternarydraw.geometry import GridDrawing, extents
from ternarydraw.layout_complete import (draw_c1_only, draw_c2_only,
                                         draw_golden, draw_upper_1149)
from ternarydraw.layout_general import draw_general, frame_stats
from ternarydraw.pareto import REFERENCE_AREA_TABLE, fit_power_law, frontier, min_area
from ternarydraw.tree import complete_tree, random_ternary_tree
from ternarydraw.verify import (check_on_grid, check_orthogonal, check_planar,
                                check_top_visibility, fib_lower_bound)

from frontier_oracle import exhaustive_dimension_tuples, exhaustive_frontier
from report_oracle import naive_check_planar, parents_first


def report(number, name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {name}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_table_reproduction():
    expected = (1, 6, 25, 99, 342, 1184, 4030, 13320, 44457, 144690, 469221,
                1520189)
    got = tuple(min_area(h)[0] for h in range(1, 13))
    report(1, "minimum areas for h=1..12 match the reference table",
           got == expected)


def test_criterion_2_oracle_equivalence():
    ok = all(set(frontier(h).pairs) == set(exhaustive_frontier(h).pairs)
             for h in range(1, 5))
    report(2, "frontier equals the exhaustive enumeration for h<=4", ok)


def test_criterion_3_closed_form_dimensions():
    ok = True
    for h in range(1, 11):
        e1 = extents(draw_c1_only(h))
        ok &= (e1.width, e1.height) == (2 ** h - 1, 2 ** (h - 1))
        e2 = extents(draw_c2_only(h))
        if h % 2:
            ok &= e2.width == e2.height == (2 ** (h + 1) - 1) // 3
        else:
            ok &= (e2.width, e2.height) == ((2 ** (h + 1) + 1) // 3,
                                            (2 ** (h + 1) - 2) // 3)
    report(3, "single-construction drawings match their closed forms", ok)


def test_criterion_4_recurrence_conformance():
    ok = True
    eta1 = {1: 1, 2: 2}
    eta2 = {1: 1, 2: 2}
    for h in range(3, 13):
        g1, g2 = draw_golden(h)
        eta1[h], eta2[h] = extents(g1).height, extents(g2).height
        ok &= eta1[h] == eta1[h - 1] + eta1[h - 2] + 1
        ok &= eta2[h] == 2 * eta2[h - 1] + eta2[h - 2]
    w = {1: 1, 2: 3}
    e = {1: 1, 2: 2}
    for h in range(3, 13):
        ext = extents(draw_upper_1149(h))
        w[h], e[h] = ext.width, ext.height
        ok &= w[h] % 2 == 1
        ok &= w[h] == max(2 * e[h - 1] + 1, w[h - 2] + 2 * e[h - 2])
        ok &= e[h] == w[h - 1] + max(w[h - 2], (w[h - 2] + 1) // 2 + e[h - 2])
    report(4, "golden and 1.149^n constructions satisfy their recurrences", ok)


@pytest.fixture(scope="module")
def corpus_drawings(corpus):
    return [(t, draw_general(t)) for t in corpus]


def test_criterion_5_general_layout_bounds(corpus_drawings):
    violations = 0
    for t, d in corpus_drawings:
        n = t.n
        ok = (check_on_grid(d) and check_orthogonal(d) and check_planar(d)
              and check_top_visibility(d))
        ext = extents(d)
        ok &= ext.width <= n
        ok &= ext.height <= max(1, math.floor(2 * n ** 0.576 - 1))
        violations += not ok
    report(5, "general layout verifies and meets width/height bounds "
              f"on {len(corpus_drawings)} trees", violations == 0)


def test_criterion_6_inequality_sweep(corpus):
    p = 9.956
    violations = general = frames = 0
    for t in corpus:
        s = frame_stats(t)
        g = s.a >= 0  # frames with x >= 3 or undefined: a general P part
        m = s.m[g]
        violations += np.count_nonzero((s.a[g] >= m / p) | (s.b[g] >= m / p)
                                       | (s.s[g] > (m - s.a[g] - s.b[g]) / 3))
        violations += np.count_nonzero(s.r + s.s > 2 * (p - 1) * s.m / (3 * p))
        general += np.count_nonzero(g)
        frames += len(s.m)
    report(6, f"attachment-size inequalities hold on {general} general frames "
              f"and r + s on all {frames} frames", general > 0 and violations == 0)


def test_criterion_7_lower_bound_consistency():
    ok = True
    for h in range(1, 5):
        f = fib_lower_bound(h)
        ok &= all(min(wi, ei) >= f
                  for wi, ei, _, _ in exhaustive_dimension_tuples(h))
    for h in range(1, 10):
        f = fib_lower_bound(h)
        drawings = [draw_c1_only(h), draw_c2_only(h), draw_upper_1149(h),
                    *draw_golden(h), min_area_drawing(h)]
        for d in drawings:
            e = extents(d)
            ok &= min(e.width, e.height) >= f
    eta1 = {1: 1, 2: 2}
    for h in range(3, 13):
        eta1[h] = eta1[h - 1] + eta1[h - 2] + 1
    for h in range(1, 13):
        f = fib_lower_bound(h)
        ok &= eta1[h] >= f and eta1[h] / f <= 2
        if h <= 12 and h >= 3:
            ok &= extents(draw_golden(h)[0]).height == eta1[h]
    report(7, "every enumerated and constructed drawing respects the "
              "Fibonacci-style lower bound", ok)


def test_criterion_8_fit_beats_reference():
    points = [(float(n), float(area)) for _, n, area in REFERENCE_AREA_TABLE]
    fit = fit_power_law(points)
    ref = sum((3.3262 * n ** 1.047 - 181209.1337 - y) ** 2 for n, y in points)
    report(8, f"power-law fit sse {fit.sse:.4g} <= reference {ref:.4g}",
           fit.sse <= ref)


def _random_orthogonal_drawing(n, seed):
    rng = random.Random(seed)
    t = random_ternary_tree(n, seed)
    pos = [None] * n
    pos[t.root] = (0, 0)
    used = {(0, 0)}
    for v in parents_first(t)[1:]:  # parents first, the root first of all
        px, py = pos[t.parents[v]]
        while True:
            dx, dy = rng.choice([(1, 0), (-1, 0), (0, 1), (0, -1)])
            step = rng.randint(1, 6)
            cand = (px + dx * step, py + dy * step)
            if cand not in used:
                break
        used.add(cand)
        pos[v] = cand
    return GridDrawing(t, tuple(pos))


def _inject_crossing(d, seed):
    """Stretch one leaf's edge along its axis so it typically runs over
    other geometry, keeping the drawing orthogonal and on-grid."""
    rng = random.Random(seed)
    t = d.tree
    leaves = [v for v in range(t.n) if t.table[v, 0] < 0 and v != t.root]
    if not leaves:
        return d
    v = rng.choice(leaves)
    px, py = d.pos[t.parents[v]].tolist()
    vx, vy = d.pos[v].tolist()
    dx = (vx > px) - (vx < px)
    dy = (vy > py) - (vy < py)
    used = set(map(tuple, d.pos.tolist()))
    k = max(abs(vx - px), abs(vy - py)) + rng.randint(2, 30)
    while (px + dx * k, py + dy * k) in used:
        k += 1
    pos = list(d.pos)
    pos[v] = (px + dx * k, py + dy * k)
    return GridDrawing(t, tuple(pos))


def test_criterion_9_verifier_soundness():
    disagreements = planar_seen = nonplanar_seen = 0
    count = 0
    for seed in range(420):
        n = 10 + (seed * 37) % 190
        for d in (_random_orthogonal_drawing(n, seed),
                  draw_general(random_ternary_tree(n, seed + 10 ** 6))):
            a, b = check_planar(d), naive_check_planar(d)
            disagreements += a != b
            planar_seen += b
            nonplanar_seen += not b
            count += 1
    for seed in range(80):
        n = 500 + (seed * 631) % 1501
        d = draw_general(random_ternary_tree(n, seed))
        if seed % 2:
            d = _inject_crossing(d, seed)
        a, b = check_planar(d), naive_check_planar(d)
        disagreements += a != b
        planar_seen += b
        nonplanar_seen += not b
        count += 1
    for seed in range(80):
        n = 20 + (seed * 97) % 400
        d = _inject_crossing(draw_general(random_ternary_tree(n, seed)), seed)
        a, b = check_planar(d), naive_check_planar(d)
        disagreements += a != b
        planar_seen += b
        nonplanar_seen += not b
        count += 1
    ok = (disagreements == 0 and count >= 1000
          and planar_seen > 50 and nonplanar_seen > 50)
    report(9, f"sweep and naive planarity checkers agree on {count} drawings "
              f"({planar_seen} planar / {nonplanar_seen} not)", ok)
