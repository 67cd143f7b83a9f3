"""The Pareto DP's brute-force oracle: every (width, height, left width,
right width) tuple the 1-2 drawing definition reaches, with no equal-arm or
equal-side-width assumption, Pareto-filtered. ``exhaustive_frontier(h)``
must equal ``pareto.frontier(h)`` for h <= 4."""

import math
from itertools import product

from ternarydraw.pareto import ParetoFrontier

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
