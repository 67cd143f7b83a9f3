"""Two-rail layout for arbitrary ternary trees.

The tree is split along heavy paths into two horizontal rails P (upper) and Q
(lower) joined by a single vertical edge at the turn index x; off-rail
subtrees are drawn recursively and attached above (rotated 180°) or below
their rail parent. The resulting drawing is planar, top-visible, at most n
columns wide, and at most 2*n^c - 1 rows tall.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

import numpy as np

from .geometry import GridDrawing
from .tree import TernaryTree


P = 9.956  # the paper's threshold divisor p for the turn index
C = 1.0 / math.log2(3 / (1 - 1 / P))  # the height exponent c = 1 / log2(3p / (p - 1))


def max_rows(n: int) -> int:
    """The promised height of a drawing of n nodes: max(1, floor(2*n^c - 1)) rows."""
    return max(1, math.floor(2 * n ** C - 1))


class _Level(NamedTuple):
    """The decompositions of one frame level, as arrays over its frames.

    Frame f is rooted at ``roots[f]``; its heavy path pi has ``k[f]`` nodes
    and turns at ``pi[turn[f]]`` (x - 1; ``k[f]`` when x is undefined).
    ``ends[f]`` holds the heads of rho, sigma and tau (-1 when empty) and
    ``lens[f]`` their lengths. The rails are concatenated: frame f's is
    ``rail[offs[f]:offs[f + 1]]``, its first ``kP[f]`` nodes P, the rest Q.
    Attachment j hangs the subtree rooted at ``sub[j]`` off ``rail[at[j]]``,
    above it when ``sign[j]`` is -1, below when 1; ``frame[j]`` is False for
    a leaf, True for a frame of the next level."""

    roots: np.ndarray
    k: np.ndarray
    turn: np.ndarray
    ends: np.ndarray
    lens: np.ndarray
    kP: np.ndarray
    offs: np.ndarray
    rail: np.ndarray
    at: np.ndarray
    sub: np.ndarray
    sign: np.ndarray
    frame: np.ndarray


def _runs(first: np.ndarray, step: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The runs first[i], first[i] + step[i], ... of length[i] items each,
    concatenated."""
    i = np.repeat(np.arange(len(length)), length)
    j = np.arange(len(i)) - np.repeat(np.cumsum(length) - length, length)
    return first[i] + step[i] * j


def _segmented(ufunc: np.ufunc, values: np.ndarray, starts: np.ndarray,
               stops: np.ndarray, empty: int) -> np.ndarray:
    """``ufunc`` reduced over each values[starts[f]:stops[f]]; ``empty`` where
    that slice is empty."""
    r = ufunc.reduceat(np.append(values, empty), np.stack([starts, stops], axis=1).ravel())[::2]
    return np.where(stops > starts, r, empty)


def heavy_paths(t: TernaryTree) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The tree's heavy paths as int64 arrays (order, start, length, hp),
    the first three indexed by node id, built by numpy passes.

    ``order[v]`` is v's children by non-increasing subtree size, ties by slot,
    padded with -1. Each node lies on the path that follows heaviest children
    from its head down to a leaf. All paths lie contiguously in ``hp``, each
    from its head to its leaf, in the order of their heads' ids; v's path is
    ``hp[start[v]:start[v] + length[v]]``. Each node's head and depth below
    it are found by pointer jumping (a node's link is its parent when it is
    its parent's heaviest child), and die here."""
    S, K, n = t.size, t.table, t.n
    key = np.where(K >= 0, -S[K], 1)  # empty slots last
    order = np.take_along_axis(K, np.argsort(key, axis=1, kind="stable"), axis=1)
    head, inner = np.arange(n), np.flatnonzero(order[:, 0] >= 0)
    head[order[inner, 0]] = inner
    depth = (head != np.arange(n)).astype(np.int64)
    while not np.array_equal(jump := head[head], head):
        depth += depth[head]
        head = jump
    count = np.bincount(head, minlength=n)
    first = np.cumsum(count) - count
    start, length = first[head], count[head]
    hp = np.empty(n, np.int64)
    hp[start + depth] = np.arange(n)
    return order, start, length, hp


def _decompose(t: TernaryTree, heavy: tuple, roots: np.ndarray) -> _Level:
    """Decompose every frame rooted at ``roots`` (inner nodes heading heavy
    paths) in one batch of numpy passes.

    Each rail is five slices of the tree's heavy paths ``hp``:
    rev(rho), pi[:x-1], sigma, rev(pi[x-1:]) and tau, with rho, sigma and
    tau the heavy paths from pi's side children:
    - x = 1: tau from pi_1's second-heaviest child; P is empty;
    - x = 2: rho from pi_1's lightest child, sigma from its second-heaviest
      (the root plays both ends of P), tau from pi_2's second-heaviest;
    - x >= 3 or undefined: rho from pi_1's second-heaviest child, sigma
      from pi_{x-1}'s, tau from pi_x's (Q empty when x is undefined).
    """
    (K, start, length, hp), size, F = heavy, t.size, len(roots)
    s0, k = start[roots], length[roots]
    # x: the first node of pi whose second-heaviest subtree has >= n/p nodes
    # (sizes below 2^53 compare exactly with the float n/p, as in Python)
    pi = hp[_runs(s0, np.ones(F, np.int64), k)]  # frame f's is pi[first[f]:first[f] + k[f]]
    first = np.cumsum(k) - k
    second = K[pi, 1]
    big = (second >= 0) & (size[second] >= np.repeat(size[roots] / P, k))
    place = np.arange(len(pi)) - np.repeat(first, k)
    turn = np.minimum.reduceat(np.where(big, place, np.repeat(k, k)), first)
    before = hp[s0 + np.maximum(turn - 1, 0)]  # pi_{x-1}
    after = hp[s0 + np.minimum(turn, k - 1)]  # pi_x
    ends = np.stack([np.where(turn > 0, K[roots, np.where(turn == 1, 2, 1)], -1),
                     np.where(turn > 0, K[before, 1], -1),
                     np.where(turn < k, K[after, 1], -1)], axis=1)
    lens = np.where(ends >= 0, length[ends], 0)
    starts = start[ends]
    runs = np.stack([starts[:, 0] + lens[:, 0] - 1, s0, starts[:, 1], s0 + k - 1, starts[:, 2]], axis=1)
    rail = hp[_runs(runs.ravel(), np.tile([-1, 1, 1, -1, 1], F),
                    np.stack([lens[:, 0], turn, lens[:, 1], k - turn, lens[:, 2]], axis=1).ravel())]
    kP = lens[:, 0] + turn + lens[:, 1]
    offs = np.append(0, np.cumsum(lens.sum(axis=1) + k))

    # A rail node's heaviest child is on the rail. Off it, the second-heaviest
    # goes on top and the lightest below, but pi_{x-1}'s lightest goes on top
    # when x >= 3, as its second-heaviest starts sigma.
    on_rail = np.zeros(t.n, bool)
    on_rail[rail] = True
    swap = np.zeros(len(rail), bool)
    swap[(offs[:-1] + kP - lens[:, 1] - 1)[(turn >= 2) & (turn < k)]] = True
    kids = K[rail]
    top = np.where(swap, kids[:, 2], kids[:, 1])
    bottom = np.where(swap, -1, kids[:, 2])
    above = np.flatnonzero((top >= 0) & ~on_rail[top])
    under = np.flatnonzero((bottom >= 0) & ~on_rail[bottom])
    sub = np.concatenate([top[above], bottom[under]])
    sign = np.repeat([-1, 1], [len(above), len(under)])
    return _Level(roots, k, turn, ends, lens, kP, offs, rail, np.concatenate([above, under]),
                  sub, sign, K[sub, 0] >= 0)


def _levels(t: TernaryTree) -> Iterator[_Level]:
    """The decompositions the layout performs, one frame level at a time,
    top-down: the frames of a level are the attached subtrees of the level
    above that are not leaves. The heavy paths are built once, for every
    level, and die with the last one."""
    heavy, roots = heavy_paths(t), np.array([t.root] if t.n > 1 else [], np.int64)
    while len(roots):
        level = _decompose(t, heavy, roots)
        yield level
        roots = level.sub[level.frame]


class FrameStats(NamedTuple):
    """Attachment-size maxima of every frame the layout places, as int64
    arrays with one entry per frame, top-down in frame-level order.

    Frame f is rooted at ``root[f]`` on frame level ``level[f]`` and has
    ``m[f]`` nodes. ``a``/``b`` are the largest subtrees attached above/below
    its upper rail P, and ``r``/``s`` above/below its lower rail Q (0 when
    there are none). ``a`` and ``b`` are -1 when x < 3, where no general P
    part exists."""

    root: np.ndarray
    level: np.ndarray
    m: np.ndarray
    a: np.ndarray
    b: np.ndarray
    r: np.ndarray
    s: np.ndarray


def frame_stats(t: TernaryTree) -> FrameStats:
    """The attachment-size maxima of every frame of the general layout of t."""
    size, rows = t.size, [np.zeros((0, 7), np.int64)]
    for i, lv in enumerate(_levels(t)):
        F = len(lv.roots)
        fr = np.repeat(np.arange(F), np.diff(lv.offs))[lv.at]
        on_Q = lv.at >= (lv.offs[:-1] + lv.kP)[fr]
        most = np.zeros((F, 2, 2), np.int64)  # frame, P or Q, above or below
        np.maximum.at(most, (fr, on_Q.astype(np.int64), (lv.sign + 1) // 2), size[lv.sub])
        most[lv.turn < 2, 0] = -1  # x < 3: a frame's pi has k >= 2 nodes, so x is defined
        rows.append(np.column_stack([lv.roots, np.full(F, i), size[lv.roots], most.reshape(F, 4)]))
    return FrameStats(*np.concatenate(rows).T.copy())


def draw_general(t: TernaryTree) -> GridDrawing:
    """Planar straight-line orthogonal grid drawing of an arbitrary ternary
    tree with the top-visibility property, width at most n, and height at
    most 2*n^c - 1.

    Each decomposition is placed in a frame of its own: its rail nodes and
    leaf attachments get a column and row there, and each other attached
    subtree is a child frame with a sign (-1 when rotated 180° above its
    rail node) and an offset, found from the child frame's box. The frames
    are placed one level at a time, bottom-up, by a fixed number of numpy
    passes per level. Top-down, the frames' signs and offsets are composed
    into absolute ones, and every position is ``sign * local + offset`` of
    its frame.
    """
    levels = list(_levels(t))
    if not levels:
        return GridDrawing(t, np.zeros((t.n, 2), np.int64))
    base = np.cumsum([0] + [len(level.roots) for level in levels])  # level i: frames base[i]..
    home, lx, ly = (np.zeros(t.n, np.int64) for _ in range(3))  # each node's frame and place in it
    up, sign, ox, oy = (np.zeros(base[-1], np.int64) for _ in range(4))  # each frame's parent, sign, offset there
    below = np.zeros((5, 0), np.int64)  # root column and box of each frame one level down
    for i in reversed(range(len(levels))):
        lv = levels[i]
        M, off, s = len(lv.rail), lv.offs[:-1], lv.sign
        fr = np.repeat(np.arange(len(off)), np.diff(lv.offs))
        cx, bx0, bx1, by0, by1 = box = np.zeros((5, len(lv.sub)), np.int64)
        box[:, lv.frame] = below  # a leaf attachment is a frame of one node at (0, 0)
        ax = -s * cx  # from the rail node
        lo, hi, ylo, yhi = (np.zeros(M, np.int64) for _ in range(4))  # clusters
        np.minimum.at(lo, lv.at, ax + np.minimum(s * bx0, s * bx1))
        np.maximum.at(hi, lv.at, ax + np.maximum(s * bx0, s * bx1))
        ylo[lv.at[s < 0]] = -(by1 - by0 + 1)[s < 0]
        yhi[lv.at[s > 0]] = (by1 - by0 + 1)[s > 0]

        # upper rail P left to right on row 0; pi_x hangs directly below
        # pi_{x-1} on row y_q, pi_{x+1} .. pi_k extend leftward and tau
        # rightward, the first of each clearing everything above
        W = np.append(0, np.cumsum(hi - lo + 1))  # W[j]: the clusters' width before j
        in_P = np.arange(M) < (off + lv.kP)[fr]
        cols = (lo[off] - W[off])[fr] + W[:-1] - lo
        y_q = _segmented(np.maximum, yhi, off, off + lv.kP, -1) + 1
        rows = np.where(in_P, 0, y_q[fr])
        has_Q = lv.turn < lv.k
        xi = off + lv.kP + lv.k - lv.turn - 1
        x_col = np.where(lv.kP > 0, cols[off + lv.kP - lv.lens[:, 1] - 1], 0)
        big = np.iinfo(np.int64).max
        left = np.minimum(_segmented(np.minimum, cols + lo, off, off + lv.kP, big), x_col + lo[xi])
        right = np.maximum(_segmented(np.maximum, cols + hi, off, off + lv.kP, -big), x_col + hi[xi])
        q_base = np.where(np.arange(M) < xi[fr], (left - W[xi])[fr], (right + 1 - W[xi + 1])[fr])
        cols = np.where(in_P, cols, q_base + W[:-1] - lo)
        cols[xi[has_Q]] = x_col[has_Q]

        root_at = np.where(lv.turn > 0, off + lv.lens[:, 0], xi)
        below = np.stack([cols[root_at], np.minimum.reduceat(cols + lo, off),
                          np.maximum.reduceat(cols + hi, off), np.minimum.reduceat(rows + ylo, off),
                          np.maximum.reduceat(rows + yhi, off)])
        f = base[i] + fr
        home[lv.rail], lx[lv.rail], ly[lv.rail] = f, cols, rows
        ax += cols[lv.at]
        ay = rows[lv.at] + s * (1 - by0)
        leaf = lv.sub[~lv.frame]
        home[leaf], lx[leaf], ly[leaf] = f[lv.at[~lv.frame]], ax[~lv.frame], ay[~lv.frame]
        g = slice(base[i + 1], base[i + 1] + np.count_nonzero(lv.frame))
        up[g], sign[g], ox[g], oy[g] = f[lv.at[lv.frame]], s[lv.frame], ax[lv.frame], ay[lv.frame]
    sign[0] = 1
    for i in range(1, len(levels)):  # offsets in the parent frame become absolute
        g = slice(base[i], base[i + 1])
        s = sign[up[g]]
        sign[g] *= s
        ox[g] = s * ox[g] + ox[up[g]]
        oy[g] = s * oy[g] + oy[up[g]]
    X = sign[home] * lx + ox[home]
    Y = sign[home] * ly + oy[home]
    return GridDrawing(t, np.stack([X - X[t.root], Y - Y[t.root]], axis=1))
