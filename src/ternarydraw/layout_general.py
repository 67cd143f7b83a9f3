"""Two-rail layout for arbitrary ternary trees.

The tree is split along heavy paths into two horizontal rails P (upper) and Q
(lower) joined by a single vertical edge at the turn index x; off-rail
subtrees are drawn recursively and attached above (rotated 180°) or below
their rail parent. The resulting drawing is planar, top-visible, at most n
columns wide, and at most 2*n^c - 1 rows tall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import add
from typing import Iterator, Optional

import numpy as np

from .geometry import GridDrawing
from .tree import HeavyOrder, TernaryTree, heavy_order, heavy_path, subtree_sizes


@dataclass(frozen=True)
class LayoutParams:
    """Threshold divisor p for the turn index; the height exponent c follows."""

    p: float = 9.956

    def __post_init__(self) -> None:
        if not self.p > 4:
            raise ValueError("p must be > 4")

    @property
    def c(self) -> float:
        return 1.0 / math.log2(3 * self.p / (self.p - 1))


@dataclass
class RailDecomposition:
    """Rails and attachments for one recursion level rooted at ``root``.

    ``x`` is the turn index (None when the heavy path never turns down);
    internally the undefined case behaves like x = k(pi) + 1. ``top``/
    ``bottom`` map a rail node to the root of its attached subtree; top
    subtrees are drawn rotated 180° above the rail, bottom subtrees upright
    below it.
    """

    root: int
    n: int
    x: Optional[int]
    pi: tuple[int, ...]
    rho: tuple[int, ...] = ()
    sigma: tuple[int, ...] = ()
    tau: tuple[int, ...] = ()
    P: tuple[int, ...] = ()
    Q: tuple[int, ...] = ()
    top: dict[int, int] = field(default_factory=dict)
    bottom: dict[int, int] = field(default_factory=dict)

    @property
    def x_eff(self) -> int:
        return self.x if self.x is not None else len(self.pi) + 1


@dataclass(frozen=True)
class DecompositionStats:
    """Maximum attachment sizes: a/b over top/bottom subtrees of P, r/s over
    top/bottom subtrees of Q. a and b are None when x < 3 (no general P
    part exists)."""

    a: Optional[int]
    b: Optional[int]
    r: int
    s: int


def _turn_index(pi: tuple[int, ...], sizes: list[int], order: HeavyOrder,
                threshold: float) -> Optional[int]:
    """Smallest 1-based i such that pi_i has at least two subtrees with at
    least ``threshold`` nodes each, that is, its second-heaviest has."""
    for i, v in enumerate(pi, start=1):
        c = order.second[v]
        if c is not None and sizes[c] >= threshold:
            return i
    return None


def _decompose(t: TernaryTree, root: int, sizes: list[int],
               order: HeavyOrder, p: float) -> RailDecomposition:
    n = sizes[root]
    pi = tuple(heavy_path(t, root, order))
    x = _turn_index(pi, sizes, order, n / p)
    k = len(pi)

    def hp_of(child: Optional[int]) -> tuple[int, ...]:
        return () if child is None else tuple(heavy_path(t, child, order))

    rho: tuple[int, ...] = ()
    sigma: tuple[int, ...] = ()
    tau: tuple[int, ...] = ()
    exception: Optional[int] = None  # rail node whose lightest subtree goes top

    if x == 1:
        tau = hp_of(order.second[pi[0]])
        P: tuple[int, ...] = ()
        Q = tuple(reversed(pi)) + tau
    elif x == 2:
        # the root plays both ends of P: its lightest subtree takes the
        # leftward rail slot the second-heaviest normally gets, while the
        # second-heaviest runs straight to the right
        rho = hp_of(order.lightest[pi[0]])
        sigma = hp_of(order.second[pi[0]])
        P = tuple(reversed(rho)) + (pi[0],) + sigma
        tau = hp_of(order.second[pi[1]])
        Q = tuple(reversed(pi[1:])) + tau
    else:
        x_eff = k + 1 if x is None else x
        rho = hp_of(order.second[pi[0]])
        sigma = hp_of(order.second[pi[x_eff - 2]])
        P = tuple(reversed(rho)) + pi[: x_eff - 1] + sigma
        if x is not None:
            tau = hp_of(order.second[pi[x_eff - 1]])
            Q = tuple(reversed(pi[x_eff - 1:])) + tau
            exception = pi[x_eff - 2]
        else:
            Q = ()

    rail = set(P) | set(Q)
    top: dict[int, int] = {}
    bottom: dict[int, int] = {}
    for v in rail:  # a rail node has at most one top and one bottom child
        for c in (order.heaviest[v], order.second[v], order.lightest[v]):
            if c is None or c in rail:
                continue
            if c == order.lightest[v] and v != exception:
                bottom[v] = c
            else:
                top[v] = c
    return RailDecomposition(root, n, x, pi, rho, sigma, tau, P, Q, top, bottom)


def decompose(t: TernaryTree, params: Optional[LayoutParams] = None) -> RailDecomposition:
    if t.n < 2:
        raise ValueError("decompose needs a tree with at least 2 nodes")
    params = params or LayoutParams()
    sizes = subtree_sizes(t)
    return _decompose(t, t.root, sizes, heavy_order(t), params.p)


def decomposition_stats(d: RailDecomposition,
                        sizes: Optional[list[int]] = None,
                        t: Optional[TernaryTree] = None) -> DecompositionStats:
    """Attachment-size maxima. Needs the tree (or its size table) that
    produced ``d``; sizes are recomputed from ``t`` when omitted."""
    if sizes is None:
        if t is None:
            raise ValueError("pass the source tree or its subtree sizes")
        sizes = subtree_sizes(t)
    p_set = set(d.P)

    def attach_max(mapping: dict[int, int], on_p: bool) -> int:
        vals = [sizes[c] for v, c in mapping.items() if (v in p_set) == on_p]
        return max(vals, default=0)

    general = d.x is None or d.x >= 3
    a = attach_max(d.top, True) if general else None
    b = attach_max(d.bottom, True) if general else None
    r = attach_max(d.top, False)
    s = attach_max(d.bottom, False)
    return DecompositionStats(a, b, r, s)


def all_decompositions(t: TernaryTree,
                       params: Optional[LayoutParams] = None
                       ) -> Iterator[RailDecomposition]:
    """Every decomposition the layout recursion would perform, top-down."""
    params = params or LayoutParams()
    sizes = subtree_sizes(t)
    order = heavy_order(t)
    stack = [t.root]
    while stack:
        v = stack.pop()
        if t.is_leaf(v):
            continue
        d = _decompose(t, v, sizes, order, params.p)
        yield d
        stack.extend(d.top.values())
        stack.extend(d.bottom.values())


def _extend(cols: list[int], lo: list[int], hi: list[int], edge: int,
            idx: range, right: bool = True) -> None:
    """Columns for the clusters ``idx``, in that order, along a rail: each
    clears the one before (the first clears column ``edge``) by one column,
    rightward or leftward."""
    for i in idx:
        cols[i] = edge + 1 - lo[i] if right else edge - 1 - hi[i]
        edge = cols[i] + (hi[i] if right else lo[i])


def draw_general(t: TernaryTree, params: Optional[LayoutParams] = None) -> GridDrawing:
    """Planar straight-line orthogonal grid drawing of an arbitrary ternary
    tree with the top-visibility property, width at most n, and height at
    most 2*n^c - 1.

    Two passes. Bottom-up, each decomposition is placed once, in a frame of
    its own: its rail nodes and leaf attachments get a column and row there,
    and each other attached subtree is a child frame with a sign (-1 when
    rotated 180° above its rail node) and an offset, found from the child
    frame's box. Top-down, the frames' signs and offsets are composed into
    absolute ones, and every position is ``sign * local + offset`` of its
    frame, in one numpy pass.
    """
    params = params or LayoutParams()
    sizes = subtree_sizes(t)
    order = heavy_order(t)
    p = params.p
    nodes, xs, ys, homes = [], [], [], []  # each node's frame and place in it
    up, sign, ox, oy = [0], [1], [0], [0]  # each frame's parent frame, sign, offset there

    def place(r: int, f: int) -> tuple[int, int, int, int, int]:
        """Lay out frame f, rooted at r; return r's column and the frame's
        box (xmin, xmax, ymin, ymax)."""
        d = _decompose(t, r, sizes, order, p)
        rail, k, m = d.P + d.Q, len(d.P), len(d.P) + len(d.Q)
        lo, hi, ylo, yhi = [0] * m, [0] * m, [0] * m, [0] * m  # clusters
        leaves, frames = [], []
        at = {v: i for i, v in enumerate(rail)} if d.top or d.bottom else {}
        for s, side, attached in ((-1, ylo, d.top), (1, yhi, d.bottom)):
            for v, c in attached.items():
                i = at[v]
                if order.heaviest[c] is None:
                    side[i] = s
                    leaves.append((c, i, s))
                    continue
                g = len(up)
                up.append(f)
                sign.append(s)
                ox.append(0)
                oy.append(0)
                cx, bx0, bx1, by0, by1 = place(c, g)
                ox[g], oy[g] = -s * cx, s * (1 - by0)  # from its rail node
                lo[i] = min(lo[i], ox[g] + min(s * bx0, s * bx1))
                hi[i] = max(hi[i], ox[g] + max(s * bx0, s * bx1))
                side[i] = s * (by1 - by0 + 1)
                frames.append((g, i))

        # upper rail P left to right on row 0; pi_x hangs directly below
        # pi_{x-1} on row y_q, pi_{x+1} .. pi_k extend leftward and tau
        # rightward, the first of each clearing everything above
        cols = [0] * m
        _extend(cols, lo, hi, lo[0] - 1 if k else 0, range(k))
        y_q = max(yhi[:k], default=-1) + 1
        rows = [0] * k + [y_q] * (m - k)
        if d.Q:
            xi = m - len(d.tau) - 1
            cols[xi] = cols[k - 1 - len(d.sigma)] if k else 0
            guarded = [*range(k), xi]
            _extend(cols, lo, hi, min(cols[i] + lo[i] for i in guarded),
                    range(xi - 1, k - 1, -1), right=False)
            _extend(cols, lo, hi, max(cols[i] + hi[i] for i in guarded),
                    range(xi + 1, m))
        nodes.extend(rail)
        xs.extend(cols)
        ys.extend(rows)
        homes.extend([f] * m)
        for c, i, s in leaves:
            nodes.append(c)
            xs.append(cols[i])
            ys.append(rows[i] + s)
            homes.append(f)
        for g, i in frames:  # offsets from a rail node become offsets in frame f
            ox[g] += cols[i]
            oy[g] += rows[i]
        return (cols[rail.index(r)], min(map(add, cols, lo)), max(map(add, cols, hi)),
                min(map(add, rows, ylo)), max(map(add, rows, yhi)))

    X = np.zeros(t.n, dtype=np.int64)
    Y = np.zeros(t.n, dtype=np.int64)
    if t.n > 1:
        place(t.root, 0)
        del place  # it refers to itself: free the lists on return, not at the next gc
        for g in range(1, len(up)):  # a parent frame's id is smaller than its children's
            s = sign[up[g]]
            sign[g] *= s
            ox[g] = s * ox[g] + ox[up[g]]
            oy[g] = s * oy[g] + oy[up[g]]
        N, F = np.array(nodes), np.array(homes)
        S = np.array(sign)[F]
        X[N] = S * np.array(xs) + np.array(ox)[F]
        Y[N] = S * np.array(ys) + np.array(oy)[F]
    return GridDrawing(t, np.stack([X - X[t.root], Y - Y[t.root]], axis=1))
