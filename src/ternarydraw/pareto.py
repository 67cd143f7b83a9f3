"""Pareto-optimal width-height pairs for 1-2 drawings of complete ternary
trees, minimum-area extraction, witness reconstruction, and power-law
fitting of the area table.

The level-to-level transition assumes every frontier drawing has equal left
and right width (hence odd width); drawings with that normalization are never
worse, and the exhaustive check in tests/frontier_oracle.py confirms the
frontier is exact for h <= 4.
"""

from __future__ import annotations

import math
import os
import re
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional, Sequence

if TYPE_CHECKING:  # numpy and the layouts load on first use: a warm `table` needs neither
    from .geometry import GridDrawing

Pair = tuple[int, int]
Recipe = tuple[int, int, int]  # (arm index, center index, construction)


class ParetoFrontier(NamedTuple):
    """Pareto-optimal (width, height) pairs for 1-2 drawings of T_h, sorted
    by strictly increasing width / strictly decreasing height. ``recipes[i]``
    indexes into the frontier one level down: both arms use the same pair."""

    h: int
    pairs: tuple[Pair, ...]
    recipes: Optional[tuple[Recipe, ...]] = None

    def min_area(self) -> tuple[int, Pair]:
        """Minimum width*height over the pairs; area ties broken toward the
        smaller width."""
        return min((w * e, (w, e)) for w, e in self.pairs)


class PowerLawFit(NamedTuple):
    a: float
    b: float
    c: float
    sse: float


# Known minimum 1-2 drawing areas for T_1..T_20: (h, n, area), n = (3^h - 1) / 2.
REFERENCE_AREA_TABLE: tuple[tuple[int, int, int], ...] = tuple(
    (h, (3 ** h - 1) // 2, area) for h, area in enumerate(
        (1, 6, 25, 99, 342, 1184, 4030, 13320, 44457, 144690, 469221,
         1520189, 4840478, 15550542, 49461933, 157388427, 498895215,
         1580110511, 4990796080, 15765654805), start=1)
)


def recipe_pair(arm: Pair, center: Pair, constr: int) -> Pair:
    """The (width, height) pair that construction ``constr`` builds from a
    center drawing of pair ``center`` and two arms of pair ``arm``, each
    with equal left and right width, as is every drawing it builds."""
    (wa, ea), (wc, ec) = arm, center
    if constr == 1:
        return wc + 2 * ea, (wa - 1) // 2 + max((wa - 1) // 2, ec) + 1
    return 2 * max((wc - 1) // 2, ea) + 1, wa + ec


# Arms per block, and centers per tile, of enumerated construction-1 pairs:
# the DP's scratch arrays hold at most _ARM_BLOCK * k entries each.
_ARM_BLOCK = 64
_EMPTY = 2**63 - 1  # the int64 maximum


def _next_frontier(prev: ParetoFrontier) -> ParetoFrontier:
    """Frontier of T_{h+1} from that of T_h. With center i and both arms j
    (indices into ``prev``) and lam = (w - 1) / 2, the candidates are

        construction 1: W = w_i + 2 e_j,           H = lam_j + max(lam_j, e_i) + 1
        construction 2: W = 2 max(lam_i, e_j) + 1, H = w_j + e_i

    and the result is the Pareto set of all 2k^2 of them, each pair realized
    by its smallest (arm, center, construction).

    As w and lam increase and e decreases strictly along ``prev``, a candidate
    that shares its W with one of smaller H, or its H with one of smaller W,
    is never that smallest realization of a frontier pair. That leaves:
    - C2 with lam_i <= e_j (W = 2 e_j + 1): per arm, the largest such center;
    - C2 with e_j <= lam_i (W = w_i): per center, the first such arm;
    - C1 with e_i <= lam_j (H = w_j): per arm, the first such center;
    - C1 with e_i >= lam_j: about k^2 / 2 pairs, in tiles of _ARM_BLOCK arms
      [j0, j1) by _ARM_BLOCK centers [i0, i1) (a block's rectangle adds a
      few clamped C1 pairs).
    Every W is odd. Each candidate lowers the entry at (W - 1) / 2 of one
    dense array to its key, packed so that integer order is (H, arm, center,
    construction) order; a running minimum of H over W leaves the frontier.

    The tile test: every candidate of a tile has slot (W - 1) / 2 at least
    cs = lam_i0 + e_(j1-1) and H at least ch = e_(i1-1) + lam_j0 + 1, the
    corner of the tile. Once the three O(k) groups are in, let cap[s] be the
    lower of H[s] + 1 and the least H at any slot below s. If cap[cs] <= ch,
    a pair already offered either lies at a slot below the tile's with H no
    larger, or at slot cs with H smaller than all the tile's; offers only
    lower keys, so that pair or a better one stays, and it strictly
    dominates every candidate of the tile or outranks it at slot cs. Such a
    tile is skipped: no frontier pair, recipe or running minimum changes.
    """
    import numpy as np

    k = len(prev.pairs)
    span = 2 * k * k  # keys per value of H
    if (prev.pairs[-1][0] + prev.pairs[0][1] + 1) * span > _EMPTY:  # H <= w_top + e_top
        raise ValueError(f"frontier of T_{prev.h} is too large for int64 recipe keys")
    w = np.array([p[0] for p in prev.pairs], dtype=np.int64)
    e = np.array([p[1] for p in prev.pairs], dtype=np.int64)
    lam = (w - 1) // 2
    best = np.full(int(lam[-1] + e[0]) + 1, _EMPTY, dtype=np.int64)

    def offer(slot, H, arm, center, constr):
        key = H * span + (arm * (2 * k) + (constr - 1) + center * 2)
        np.minimum.at(best, slot.ravel(), key.ravel())  # 1-d: numpy's fast path

    def least_below(H):  # per slot, the least H at any slot below it; _EMPTY // span if none
        return np.minimum.accumulate(np.concatenate(([_EMPTY // span], H[:-1])))

    center = np.searchsorted(lam, e, side="right") - 1  # C2, lam_i <= e_j: last center
    arm = np.flatnonzero(center >= 0)
    center = center[arm]
    offer(e[arm], w[arm] + e[center], arm, center, 2)
    x = np.arange(k)
    y = np.searchsorted(-e, -lam, side="left")  # first index y with e_y <= lam_x
    x, y = x[y < k], y[y < k]
    offer(lam[x], w[y] + e[x], y, x, 2)  # C2, e_j <= lam_i: center x, first arm y
    offer(lam[y] + e[x], w[x], x, y, 1)  # C1, e_i <= lam_j: arm x, first center y
    H = best // span  # _EMPTY // span, above every H, at an empty slot
    cap = np.minimum(H + 1, least_below(H))
    tile = np.arange(_ARM_BLOCK)
    count = np.searchsorted(-e, -lam, side="right")  # C1, e_i >= lam_j: centers 0..count_j-1
    for j0 in range(0, k, _ARM_BLOCK):
        m = int(count[j0])
        if m == 0:
            break
        j1 = min(j0 + _ARM_BLOCK, k)
        i0 = np.arange(0, m, _ARM_BLOCK)
        i1 = np.minimum(i0 + _ARM_BLOCK, m)
        i0 = i0[cap[lam[i0] + e[j1 - 1]] > e[i1 - 1] + lam[j0] + 1]  # the tile test
        center = (i0[:, None] + tile).ravel()
        arm = np.arange(j0, j1)[:, None]
        center = center[center < m][None, :]
        H = np.maximum(lam[arm], e[center]) + (lam[arm] + 1)
        offer(lam[center] + e[arm], H, arm, center, 1)

    H = best // span
    slot = np.flatnonzero(H < least_below(H))  # an empty slot's H is below no slot's
    key, H = best[slot] % span, H[slot]
    pairs = tuple(zip((2 * slot + 1).tolist(), H.tolist()))
    recipes = tuple(zip((key // (2 * k)).tolist(), (key // 2 % k).tolist(),
                        (key % 2 + 1).tolist()))
    return ParetoFrontier(prev.h + 1, pairs, recipes)


def _cache_path(cache_dir: str, h: int) -> str:
    return os.path.join(cache_dir, f"frontier_h{h:02d}.txt")


def save_frontier(fr: ParetoFrontier, cache_dir: str) -> str:
    """Write the level's cache file atomically: the rows go to a temporary
    file in ``cache_dir`` that then replaces ``frontier_hNN.txt``, so a
    reader never sees a half-written level."""
    os.makedirs(cache_dir, exist_ok=True)
    path = _cache_path(cache_dir, fr.h)
    lines = [f"h={fr.h} count={len(fr.pairs)}"]
    for (w, e), (a, c, cn) in zip(fr.pairs, fr.recipes):
        lines.append(f"{w} {e} {a} {c} {cn}")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as f:
            f.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write or the rename failed
            os.remove(tmp)
    return path


class CacheError(ValueError):
    """A frontier cache file that fails load_frontier's checks."""


# At most 19 digits a number: a longer one fails its pattern, never int()'s digit limit.
_HEADER = re.compile("h=([1-9][0-9]{0,18}) count=([1-9][0-9]{0,18})")
_ROW = re.compile(" ".join(["(0|[1-9][0-9]{0,18})"] * 4 + ["([12])"]))


def load_frontier(cache_dir: str, h: int, below: ParetoFrontier) -> Optional[ParetoFrontier]:
    """The frontier of T_h read from ``cache_dir``, or None if it has no file
    for h. ``below`` is the frontier of T_{h-1}.

    The whole file is checked before any of it is used, in O(k): the header
    ``h=<h> count=<k>``, then exactly k rows ``w e arm center construction``
    written as save_frontier writes them, construction 1 or 2, with w
    strictly increasing and e strictly decreasing, arm and center indices
    into ``below``, and each pair the one its recipe builds from ``below``
    (so every width is odd). The first failure raises CacheError naming the
    file and the row (row 0 is the header). Only a frontier pair missing
    from an otherwise valid file goes unnoticed: finding it means
    recomputing the level."""
    path = _cache_path(cache_dir, h)
    try:
        with open(path, "rb") as f:
            data = f.read()
    except FileNotFoundError:
        return None

    def bad(row: int, why: str) -> CacheError:
        return CacheError(f"{path} for h={h}, row {row}: {why}")

    rows = data.decode("latin-1").removesuffix("\n").split("\n")  # a byte past ASCII fails its row
    header = _HEADER.fullmatch(rows[0])
    if header is None or int(header[1]) != h:
        raise bad(0, f"header {rows[0]!r} is not 'h={h} count=<rows>'")
    count = int(header[2])
    if len(rows) != count + 1:
        raise bad(min(len(rows), count + 1),
                  f"the header declares {count} rows, the file holds {len(rows) - 1}")
    k = len(below.pairs)
    pairs: list[Pair] = []
    recipes: list[Recipe] = []
    for r in range(1, count + 1):
        row = _ROW.fullmatch(rows[r])
        if row is None:
            raise bad(r, f"{rows[r]!r} is not 'w e arm center construction' as "
                         "save_frontier writes it (construction 1 or 2)")
        w, e, arm, center, constr = map(int, row.groups())
        if pairs and not (w > pairs[-1][0] and e < pairs[-1][1]):
            raise bad(r, f"pair {(w, e)} is not wider and lower than the pair {pairs[-1]} above it")
        if not (0 <= arm < k and 0 <= center < k):
            raise bad(r, f"arm {arm} or center {center} is not an index into the {k} "
                         f"pairs of h={h - 1}")
        built = recipe_pair(below.pairs[arm], below.pairs[center], constr)
        if (w, e) != built:
            raise bad(r, f"pair {(w, e)} is not {built}, the pair its recipe builds")
        pairs.append((w, e))
        recipes.append((arm, center, constr))
    return ParetoFrontier(h, tuple(pairs), tuple(recipes))


def levels(h: int, cache_dir: Optional[str] = None) -> Iterator[ParetoFrontier]:
    """Frontiers of T_1..T_h, in order, holding only the last one: each level
    is read from the cache and checked against the one below, or computed
    from the one below and then saved to the cache."""
    if h < 1:
        raise ValueError("h must be >= 1")
    fr = ParetoFrontier(1, ((1, 1),), ((-1, -1, 0),))
    yield fr
    for level in range(2, h + 1):
        loaded = load_frontier(cache_dir, level, fr) if cache_dir else None
        if loaded is None:
            loaded = _next_frontier(fr)
            if cache_dir:
                save_frontier(loaded, cache_dir)
        fr = loaded
        yield fr


def frontier(h: int, cache_dir: Optional[str] = None) -> ParetoFrontier:
    """Exact Pareto set over all 1-2 drawings of T_h."""
    for fr in levels(h, cache_dir):
        pass
    return fr


def min_area(h: int, cache_dir: Optional[str] = None) -> tuple[int, Pair]:
    """Minimum width*height over the frontier; area ties broken toward the
    smaller width (pairs come sorted by increasing width)."""
    return frontier(h, cache_dir).min_area()


def reconstruct_drawing(fronts: Sequence[ParetoFrontier], pair: Pair) -> GridDrawing:
    """Geometric witness for a pair on the frontier of T_h, following the
    stored recipes of ``fronts``, the frontiers of T_1..T_h as levels yields
    them (so h = len(fronts)). Arms reuse one drawing, so they are congruent
    up to the 180° rotation applied inside the constructions. ValueError
    unless the drawing built is exactly pair[0] wide and pair[1] tall, as
    only frontiers that levels did not yield can make it."""
    from .geometry import extents
    from .layout_complete import compose

    h = len(fronts)
    try:
        top_idx = fronts[h - 1].pairs.index((int(pair[0]), int(pair[1])))
    except ValueError:
        raise ValueError(f"pair {pair} is not on the frontier for h={h}") from None
    d = compose(h, [fr.recipes for fr in fronts[1:]], (top_idx,))[0]
    e = extents(d)
    if (e.width, e.height) != tuple(pair):
        raise ValueError(f"the recipes for h={h} build a {e.width}x{e.height} drawing, "
                         f"not the pair {pair} they were read for")
    return d


def fit_power_law(points: Sequence[tuple[float, float]]) -> PowerLawFit:
    """Least-squares fit of a*n^b + c by golden-section search over b in
    [0.5, 2] with (a, c) solved in closed form at each probe. ValueError if
    the search ends at an end of that range."""
    if len(points) < 3:
        raise ValueError("need at least 3 points")
    import numpy as np

    ns = np.array([p[0] for p in points], dtype=float)
    ys = np.array([p[1] for p in points], dtype=float)
    if not (np.all(np.isfinite(ns)) and np.all(np.isfinite(ys))):
        raise ValueError("n and area values must be finite numbers")
    if not np.all(ns > 0):
        raise ValueError("n values must be positive")
    if not np.all(np.diff(ns) > 0):
        raise ValueError("n values must be strictly increasing")

    def solve(b: float) -> tuple[float, float, float]:
        X = np.column_stack([ns ** b, np.ones_like(ns)])
        coef, _, _, _ = np.linalg.lstsq(X, ys, rcond=None)
        resid = X @ coef - ys
        return float(coef[0]), float(coef[1]), float(resid @ resid)

    invphi = (math.sqrt(5) - 1) / 2
    lo, hi = 0.5, 2.0
    try:  # an overflow anywhere in the search is an error, never a printed inf
        with np.errstate(over="raise", invalid="raise"):
            while hi - lo > 1e-6:  # keep the side of the golden probe with the lower sse
                d = invphi * (hi - lo)
                if solve(hi - d)[2] <= solve(lo + d)[2]:
                    hi = lo + d
                else:
                    lo = hi - d
            b = (lo + hi) / 2
            a, c, sse = solve(b)
    except FloatingPointError as e:
        raise ValueError(f"no finite fit: {e}") from None
    if lo == 0.5 or hi == 2.0:
        raise ValueError(f"no fit: the best exponent b={b:.6g} is at an end of its search range [0.5, 2]")
    if not all(map(math.isfinite, (a, c, sse))):
        raise ValueError(f"no finite fit: a={a} c={c} sse={sse}")
    return PowerLawFit(a, b, c, sse)
