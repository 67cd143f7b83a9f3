"""1-2 drawing combinators and closed-form constructions for complete trees.

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

import numpy as np

from .geometry import GridDrawing
from .tree import TreeError, complete_tree

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


def as_drawing(h: int, P: np.ndarray) -> GridDrawing:
    """The drawing of T_h whose node v sits at row v of P."""
    return GridDrawing(complete_tree(h), P)


def _check_h(h: int) -> None:
    if h < 1:
        raise TreeError("h must be >= 1")


def draw_c1_only(h: int) -> GridDrawing:
    """1-2 drawing of T_h built with Construction 1 at every level.
    Dimensions: width 2^h - 1, height 2^(h-1)."""
    _check_h(h)
    P = _POINT
    for _ in range(h - 1):
        P = construct1(P, P, P)
    return as_drawing(h, P)


def draw_c2_only(h: int) -> GridDrawing:
    """1-2 drawing of T_h built with Construction 2 at every level.
    Dimensions: (2^(h+1)-1)/3 square for odd h; ((2^(h+1)+1)/3,
    (2^(h+1)-2)/3) for even h."""
    _check_h(h)
    P = _POINT
    for _ in range(h - 1):
        P = construct2(P, P, P)
    return as_drawing(h, P)


def draw_golden(h: int) -> tuple[GridDrawing, GridDrawing]:
    """Mutual recursion giving Fibonacci-like height growth.

    Returns (g1, g2): g1 is the narrow-height drawing (height follows
    eta(h) = eta(h-1) + eta(h-2) + 1), g2 the narrow-width companion used
    for g1's arms. For h <= 2 both are the unique 1-2 drawing.
    """
    _check_h(h)
    g1 = g2 = _POINT if h == 1 else construct1(_POINT, _POINT, _POINT)
    for _ in range(h - 2):
        g1, g2 = construct1(g1, g2, g2), construct2(g2, g1, g1)
    return as_drawing(h, g1), as_drawing(h, g2)


def draw_upper_1149(h: int) -> GridDrawing:
    """Best analytic construction: the center of each level is a
    Construction-1 combination of three drawings two levels down, flanked by
    the previous level's drawings via Construction 2. Width and height both
    stay within O(1.8794^h)."""
    _check_h(h)
    below, last = _POINT, construct1(_POINT, _POINT, _POINT)  # levels 1 and 2
    for _ in range(h - 2):
        below, last = last, construct2(construct1(below, below, below), last, last)
    return as_drawing(h, below if h == 1 else last)
