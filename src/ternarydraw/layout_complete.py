"""1-2 drawings of complete trees: the two combinators, and compose, which
builds every layout here and every pareto witness from per-level recipes.

Both combinators, construct1 and construct2, take the three child drawings
PRE-rotation; the required 90° rotations of the flanking drawings happen
inside. Child-slot mapping is fixed for determinism: slot 1 is the center
subtree (below the root), slot 0 the left arm (rotated clockwise), slot 2 the
right arm (rotated counterclockwise).

They work on (m, 2) int64 coordinate arrays in the preorder of
``complete_tree``, root in row 0 at the origin. In that preorder the three
child subtrees of T_h are the contiguous id blocks [1, 1+m), [1+m, 1+2m) and
[1+2m, 1+3m), m = |T_{h-1}|, so a level is one rotated and translated slice
per block.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .geometry import GridDrawing
from .tree import complete_tree

_POINT = np.zeros((1, 2), dtype=np.int64)  # T_1, shared by every layout
_POINT.setflags(write=False)


def _blocks(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A fresh (3m+1, 2) array with the root at the origin, and views of its
    left-arm, center and right-arm blocks."""
    out = np.empty((3 * m + 1, 2), dtype=np.int64)
    out[0] = 0
    return out, out[1:1 + m], out[1 + m:1 + 2 * m], out[1 + 2 * m:]


def construct1(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Construction 1 on arrays: center a hangs one row below the root; b
    (rotated cw, (x, y) -> (-y, x)) and c (rotated ccw, (x, y) -> (y, -x))
    flank it, their roots on the root's row."""
    out, left, center, right = _blocks(len(a))
    center[:] = a
    center[:, 1] += 1 - a[:, 1].min()
    left[:, 0] = b[:, 1].min() + a[:, 0].min() - 1 - b[:, 1]
    left[:, 1] = b[:, 0]
    right[:, 0] = c[:, 1] + a[:, 0].max() + 1 - c[:, 1].min()
    right[:, 1] = -c[:, 0]
    return out


def construct2(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Construction 2 on arrays: b (rotated cw) and c (rotated ccw) flank the
    root directly; center a hangs one row below the lower of the two."""
    out, left, center, right = _blocks(len(a))
    left[:, 0] = b[:, 1].min() - 1 - b[:, 1]
    left[:, 1] = b[:, 0]
    right[:, 0] = c[:, 1] + 1 - c[:, 1].min()
    right[:, 1] = -c[:, 0]
    center[:] = a
    center[:, 1] += max(b[:, 0].max(), -c[:, 0].min()) + 1 - a[:, 1].min()
    return out


def compose(h: int, rows: Sequence[Sequence[tuple[int, int, int]]],
            tops: Sequence[int]) -> tuple[GridDrawing, ...]:
    """The drawings of T_h of the types ``tops``, built level by level from
    T_1's point. ``rows[l][t]`` is the recipe (arm, center, construction) of
    type t of T_{l+2}, as a frontier stores it: arm and center are types one
    level down, both arms one drawing. A named layout repeats one schedule
    row at every level. Only the types the tops reach are built, each once."""
    tree = complete_tree(h)
    reach = [set(tops)]
    for row in reversed(rows):  # the types each level below must supply
        reach.append({t for top in reach[-1] for t in row[top][:2]})
    P = dict.fromkeys(reach.pop(), _POINT)
    for row in rows:
        built = {}
        for t in reach.pop():
            arm, center, constr = row[t]
            built[t] = (construct1 if constr == 1 else construct2)(P[center], P[arm], P[arm])
        P = built
    return tuple(GridDrawing(tree, P[t]) for t in tops)


def draw_c1_only(h: int) -> GridDrawing:
    """1-2 drawing of T_h built with Construction 1 at every level.
    Dimensions: width 2^h - 1, height 2^(h-1)."""
    return compose(h, [((0, 0, 1),)] * (h - 1), (0,))[0]


def draw_c2_only(h: int) -> GridDrawing:
    """1-2 drawing of T_h built with Construction 2 at every level.
    Dimensions: (2^(h+1)-1)/3 square for odd h; ((2^(h+1)+1)/3,
    (2^(h+1)-2)/3) for even h."""
    return compose(h, [((0, 0, 2),)] * (h - 1), (0,))[0]


def draw_golden(h: int) -> tuple[GridDrawing, GridDrawing]:
    """Mutual recursion giving Fibonacci-like height growth.

    Returns (g1, g2): g1 is the narrow-height drawing (height follows
    eta(h) = eta(h-1) + eta(h-2) + 1), g2 the narrow-width companion used
    for g1's arms. For h <= 2 both are the unique 1-2 drawing.
    """
    return compose(h, [((1, 0, 1), (0, 1, 2))] * (h - 1), (0, 1))


def draw_upper_1149(h: int) -> GridDrawing:
    """Best analytic construction: the center of each level is a
    Construction-1 combination of three drawings two levels down, flanked by
    the previous level's drawings via Construction 2. Width and height both
    stay within O(1.8794^h)."""
    return compose(h, [((0, 1, 2), (0, 0, 1))] * (h - 1), (0,))[0]
