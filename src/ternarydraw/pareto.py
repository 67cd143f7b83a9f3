"""Pareto-optimal width-height pairs for 1-2 drawings of complete ternary
trees, minimum-area extraction, witness reconstruction, a brute-force oracle
for small heights, and power-law fitting of the area table.

The level-to-level transition assumes every frontier drawing has equal left
and right width (hence odd width); drawings with that normalization are never
worse, and the exhaustive oracle confirms the frontier is exact for h <= 4.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .geometry import GridDrawing
from .layout_complete import construction1, construction2
from .tree import complete_tree

Pair = tuple[int, int]
Recipe = tuple[int, int, int]  # (arm index, center index, construction)


@dataclass(frozen=True)
class ParetoFrontier:
    """Pareto-optimal (width, height) pairs for 1-2 drawings of T_h, sorted
    by strictly increasing width / strictly decreasing height. ``recipes[i]``
    indexes into the frontier one level down: both arms use the same pair."""

    h: int
    pairs: tuple[Pair, ...]
    recipes: Optional[tuple[Recipe, ...]] = None


@dataclass(frozen=True)
class PowerLawFit:
    a: float
    b: float
    c: float
    sse: float


# Known minimum 1-2 drawing areas for T_1..T_20, with n = (3^h - 1) / 2.
REFERENCE_AREA_TABLE: tuple[tuple[int, int, int], ...] = tuple(
    zip(
        range(1, 21),
        (1, 4, 13, 40, 121, 364, 1093, 3280, 9841, 29524, 88573, 265720,
         797161, 2391484, 7174453, 21523360, 64570081, 193710244,
         581130733, 1743392200),
        (1, 6, 25, 99, 342, 1184, 4030, 13320, 44457, 144690, 469221,
         1520189, 4840478, 15550542, 49461933, 157388427, 498895215,
         1580110511, 4990796080, 15765654805),
    )
)


def _base_frontier() -> ParetoFrontier:
    return ParetoFrontier(1, ((1, 1),), ((-1, -1, 0),))


def _pareto_filter(W, H, arm, center, constr):
    """Keep the Pareto set; duplicates resolved toward the smallest
    (arm, center, construction) triple."""
    order = np.lexsort((constr, center, arm, H, W))
    W, H = W[order], H[order]
    arm, center, constr = arm[order], center[order], constr[order]
    running = np.minimum.accumulate(H)
    keep = np.empty(len(H), dtype=bool)
    keep[0] = True
    keep[1:] = H[1:] < running[:-1]
    return W[keep], H[keep], arm[keep], center[keep], constr[keep]


def _next_frontier(prev: ParetoFrontier) -> ParetoFrontier:
    w = np.array([p[0] for p in prev.pairs], dtype=np.int64)
    e = np.array([p[1] for p in prev.pairs], dtype=np.int64)
    lam = (w - 1) // 2
    k = w.size
    arms = np.arange(k, dtype=np.int64)
    parts_W, parts_H, parts_arm, parts_center, parts_c = [], [], [], [], []
    for i in range(k):
        # Construction 1: center i below the root, arms j rotated sideways
        W1 = w[i] + 2 * e
        H1 = lam + np.maximum(lam, e[i]) + 1
        # Construction 2: arms j beside the root, center i below them
        W2 = 2 * np.maximum(lam[i], e) + 1
        H2 = w + e[i]
        for W, H, c in ((W1, H1, 1), (W2, H2, 2)):
            Wk, Hk, armk, _, _ = _pareto_filter(
                W, H, arms, np.zeros(k, np.int64), np.zeros(k, np.int64))
            parts_W.append(Wk)
            parts_H.append(Hk)
            parts_arm.append(armk)
            parts_center.append(np.full(len(Wk), i, np.int64))
            parts_c.append(np.full(len(Wk), c, np.int64))
    W, H, arm, center, constr = _pareto_filter(
        np.concatenate(parts_W), np.concatenate(parts_H),
        np.concatenate(parts_arm), np.concatenate(parts_center),
        np.concatenate(parts_c))
    pairs = tuple((int(a), int(b)) for a, b in zip(W, H))
    recipes = tuple((int(a), int(b), int(c)) for a, b, c in zip(arm, center, constr))
    return ParetoFrontier(prev.h + 1, pairs, recipes)


def _cache_path(cache_dir: str, h: int) -> str:
    return os.path.join(cache_dir, f"frontier_h{h:02d}.txt")


def save_frontier(fr: ParetoFrontier, cache_dir: str) -> str:
    os.makedirs(cache_dir, exist_ok=True)
    path = _cache_path(cache_dir, fr.h)
    recipes = fr.recipes or tuple((-1, -1, 0) for _ in fr.pairs)
    lines = [f"h={fr.h} count={len(fr.pairs)}"]
    for (w, e), (a, c, cn) in zip(fr.pairs, recipes):
        lines.append(f"{w} {e} {a} {c} {cn}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return path


def load_frontier(cache_dir: str, h: int) -> Optional[ParetoFrontier]:
    path = _cache_path(cache_dir, h)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        header = f.readline().split()
        stated_h = int(header[0].split("=")[1])
        count = int(header[1].split("=")[1])
        if stated_h != h:
            raise ValueError(f"cache file {path} declares h={stated_h}")
        pairs, recipes = [], []
        for _ in range(count):
            w, e, a, c, cn = (int(tok) for tok in f.readline().split())
            pairs.append((w, e))
            recipes.append((a, c, cn))
    return ParetoFrontier(h, tuple(pairs), tuple(recipes))


def _levels(h: int, cache_dir: Optional[str]) -> list[ParetoFrontier]:
    """Frontiers of T_1..T_h: each level is read from the cache, or computed
    from the one below and then saved to it."""
    if h < 1:
        raise ValueError("h must be >= 1")
    levels = [_base_frontier()]
    for level in range(2, h + 1):
        fr = load_frontier(cache_dir, level) if cache_dir else None
        if fr is None:
            fr = _next_frontier(levels[-1])
            if cache_dir:
                save_frontier(fr, cache_dir)
        levels.append(fr)
    return levels


def frontier(h: int, cache_dir: Optional[str] = None) -> ParetoFrontier:
    """Exact Pareto set over all 1-2 drawings of T_h."""
    return _levels(h, cache_dir)[-1]


def min_area(h: int, cache_dir: Optional[str] = None) -> tuple[int, Pair]:
    """Minimum width*height over the frontier; area ties broken toward the
    smaller width (pairs come sorted by increasing width)."""
    fr = frontier(h, cache_dir)
    best = None
    best_pair = None
    for w, e in fr.pairs:
        if best is None or w * e < best:
            best = w * e
            best_pair = (w, e)
    assert best is not None and best_pair is not None
    return best, best_pair


def reconstruct_drawing(h: int, pair: Pair,
                        cache_dir: Optional[str] = None) -> GridDrawing:
    """Geometric witness for a frontier pair, following the stored recipes.
    Arms reuse one drawing, so they are congruent up to the 180° rotation
    applied inside the constructions."""
    fronts = [None, *_levels(h, cache_dir)]  # fronts[level]
    try:
        top_idx = fronts[h].pairs.index((int(pair[0]), int(pair[1])))
    except ValueError:
        raise ValueError(f"pair {pair} is not on the frontier for h={h}") from None

    memo: dict[tuple[int, int], GridDrawing] = {}

    def build(level: int, idx: int) -> GridDrawing:
        key = (level, idx)
        if key in memo:
            return memo[key]
        if level == 1:
            d = GridDrawing(complete_tree(1), ((0, 0),))
        else:
            arm_idx, center_idx, constr = fronts[level].recipes[idx]
            center = build(level - 1, center_idx)
            arm = build(level - 1, arm_idx)
            combine = construction1 if constr == 1 else construction2
            d = combine(center, arm, arm, complete_tree(level))
        memo[key] = d
        return d

    return build(h, top_idx)


_EXHAUSTIVE_MAX_H = 4

DimTuple = tuple[int, int, int, int]  # width, height, left width, right width


def _combine_dims(ga: DimTuple, gb: DimTuple, gc: DimTuple, constr: int) -> DimTuple:
    wa, ea, la, ra = ga
    wb, eb, lb, rb = gb
    wc, ec, lc, rc = gc
    if constr == 1:
        return (wa + eb + ec,
                max(lb, rc) + max(rb, ea, lc) + 1,
                eb + la,
                ec + ra)
    return (max(la, eb) + max(ra, ec) + 1,
            max(lb, rc) + max(rb, lc) + ea + 1,
            max(la, eb),
            max(ra, ec))


def exhaustive_dimension_tuples(h: int) -> set[DimTuple]:
    """All (width, height, left width, right width) tuples reachable by the
    1-2 drawing definition: every triple of level-(h-1) tuples under both
    constructions, with no equal-arm or equal-side-width assumption."""
    if h < 1:
        raise ValueError("h must be >= 1")
    if h > _EXHAUSTIVE_MAX_H:
        raise ValueError(f"exhaustive enumeration is limited to h <= {_EXHAUSTIVE_MAX_H}")
    level: set[DimTuple] = {(1, 1, 0, 0)}
    for _ in range(h - 1):
        nxt: set[DimTuple] = set()
        for ga, gb, gc in product(level, repeat=3):
            nxt.add(_combine_dims(ga, gb, gc, 1))
            nxt.add(_combine_dims(ga, gb, gc, 2))
        level = nxt
    return level


def exhaustive_frontier(h: int) -> ParetoFrontier:
    """Brute-force oracle: Pareto-filter the full dimension enumeration."""
    tuples = exhaustive_dimension_tuples(h)
    cands = sorted({(w, e) for w, e, _, _ in tuples})
    pairs = []
    best = math.inf
    for w, e in cands:
        if e < best:
            pairs.append((w, e))
            best = e
    return ParetoFrontier(h, tuple(pairs))


def fit_power_law(points: Sequence[tuple[float, float]]) -> PowerLawFit:
    """Least-squares fit of a*n^b + c by golden-section search over b with
    (a, c) solved in closed form at each probe."""
    if len(points) < 3:
        raise ValueError("need at least 3 points")
    ns = np.array([p[0] for p in points], dtype=float)
    ys = np.array([p[1] for p in points], dtype=float)
    if not np.all(np.diff(ns) > 0):
        raise ValueError("n values must be strictly increasing")

    def solve(b: float) -> tuple[float, float, float]:
        X = np.column_stack([ns ** b, np.ones_like(ns)])
        coef, _, _, _ = np.linalg.lstsq(X, ys, rcond=None)
        resid = X @ coef - ys
        return float(coef[0]), float(coef[1]), float(resid @ resid)

    invphi = (math.sqrt(5) - 1) / 2
    lo, hi = 0.5, 2.0
    m1 = hi - invphi * (hi - lo)
    m2 = lo + invphi * (hi - lo)
    f1, f2 = solve(m1)[2], solve(m2)[2]
    while hi - lo > 1e-6:
        if f1 <= f2:
            hi, m2, f2 = m2, m1, f1
            m1 = hi - invphi * (hi - lo)
            f1 = solve(m1)[2]
        else:
            lo, m1, f1 = m1, m2, f2
            m2 = lo + invphi * (hi - lo)
            f2 = solve(m2)[2]
    b = (lo + hi) / 2
    a, c, sse = solve(b)
    return PowerLawFit(a, b, c, sse)
