"""1-2 drawings of complete trees: the combinator, and compose, which builds
every layout here and every pareto witness from per-level recipes.

The combinator, construct, takes the arm and center drawings PRE-rotation, in
the order of ``pareto.recipe_pair(arm, center, construction)``; the required
90° rotations of the arm happen inside. Child-slot mapping is fixed for
determinism: slot 1 is the center subtree (below the root), slot 0 the left
arm (rotated clockwise), slot 2 the right arm (rotated counterclockwise).

It works on (m, 2) int64 coordinate arrays in the preorder of
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


def construct(arm: np.ndarray, center: np.ndarray, construction: int) -> np.ndarray:
    """Construction 1 or 2 on arrays: arm is drawn twice, rotated cw
    ((x, y) -> (-y, x)) on the left and ccw ((x, y) -> (y, -x)) on the
    right, their roots on the root's row, and center hangs below.
    Construction 1 anchors the arms at the center's column extremes and the
    center one row down; Construction 2 anchors the arms beside the root and
    the center one row below the lower arm."""
    m = len(arm)
    out = np.empty((3 * m + 1, 2), dtype=np.int64)
    out[0] = 0
    left, below, right = out[1:1 + m], out[1 + m:1 + 2 * m], out[1 + 2 * m:]
    ax, ay = arm[:, 0], arm[:, 1]
    if construction == 1:
        x0, x1, y = center[:, 0].min(), center[:, 0].max(), 1
    else:
        x0, x1, y = 0, 0, max(ax.max(), -ax.min()) + 1
    left[:, 0] = ay.min() + x0 - 1 - ay
    left[:, 1] = ax
    right[:, 0] = ay + x1 + 1 - ay.min()
    right[:, 1] = -ax
    below[:] = center
    below[:, 1] += y - center[:, 1].min()
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
            built[t] = construct(P[arm], P[center], constr)
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
