"""Geometric validation of grid drawings and measurement of the metrics the
layout constructions are supposed to guarantee."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .geometry import Extents, GridDrawing, edge_arrays, extents
from .geometry import edge_segments  # unused here; perfbench/child.py wraps it
from .tree import TernaryTree


class VerificationError(Exception):
    """A measurement the drawing was expected to support could not be made."""


@dataclass(frozen=True)
class VerificationReport:
    planar: bool
    orthogonal: bool
    on_grid: bool
    top_visible: bool
    subtree_separated: bool
    extents: Extents
    leg_length: Optional[int] = None
    left_arm_length: Optional[int] = None
    right_arm_length: Optional[int] = None


class NodeRanks(NamedTuple):
    """Each node's dense rank among the nx distinct x and the ny distinct y
    values, and in (y, x) and (x, y) order (its place there when no two
    nodes share a point), and on_grid: whether no two nodes share a point."""

    rx: np.ndarray
    ry: np.ndarray
    nx: int
    ny: int
    place_yx: np.ndarray
    place_xy: np.ndarray
    on_grid: bool


def _dense_ranks(c: np.ndarray) -> tuple[np.ndarray, int]:
    """Each entry's rank among the distinct values of c, and their count. When
    c spans at most len(c) values, as each axis of a layout's drawing does,
    they are counted instead of sorted (np.unique): a presence mask over the
    span and its running sum."""
    lo, hi = c.min(), c.max()
    if hi - lo >= len(c):  # sparse: only a sort bounds the work
        values, rank = np.unique(c, return_inverse=True)
        return rank, len(values)
    present = np.zeros(hi - lo + 1, bool)
    present[c - lo] = True
    rank = np.cumsum(present)
    rank -= 1
    return rank[c - lo], int(rank[-1]) + 1


def node_ranks(P: np.ndarray) -> NodeRanks:
    """Dense ranks per axis, then of the int64 key ry * nx + rx (resp.
    rx * ny + ry), below n**2, per order: all by _dense_ranks. Ranks keep
    order and equality: every check reads them in place of the coordinates."""
    (rx, nx), (ry, ny) = map(_dense_ranks, P.T)
    (place_yx, points), (place_xy, _) = _dense_ranks(ry * nx + rx), _dense_ranks(rx * ny + ry)
    return NodeRanks(rx, ry, nx, ny, place_yx, place_xy, points == len(P))


def rank_runs(r: NodeRanks, parent: np.ndarray, child: np.ndarray) -> tuple:
    """The (a, b) node ids of the horizontal and of the vertical edges, of
    positive length along exactly one axis, and their runs in rank space:
    (ry, rx1, rx2) and (rx, ry1, ry2) as (m, 3) arrays with lo < hi.
    Diagonal and zero-length edges are in neither."""
    dx, dy = r.rx[parent] != r.rx[child], r.ry[parent] != r.ry[child]
    h, v = (parent[dx & ~dy], child[dx & ~dy]), (parent[dy & ~dx], child[dy & ~dx])
    return h, v, *(np.stack([line[a], np.minimum(at[a], at[b]), np.maximum(at[a], at[b])], axis=1)
                   for line, at, (a, b) in ((r.ry, r.rx, h), (r.rx, r.ry, v)))


def check_on_grid(d: GridDrawing) -> bool:
    """Pairwise distinct points (GridDrawing holds only integers)."""
    return build_report(d).on_grid


def check_orthogonal(d: GridDrawing) -> bool:
    """Every edge a horizontal or vertical segment of positive length."""
    return build_report(d).orthogonal


def _interior_crossing(hs: np.ndarray, vs: np.ndarray, width: int, height: int) -> bool:
    """Some vertical (x, y1, y2) and horizontal (y, x1, x2) with x1 < x < x2
    and y1 < y < y2, in rank space (width columns, height rows), the
    verticals given in x order. A horizontal's open x-range is then a run of
    vertical indices, read off a count of the verticals per column and split
    bottom-up into dyadic blocks. At level k the verticals are sorted by
    (block, y1) and carry a running max of block * height + y2, so one
    searchsorted per level finds, per block asked about, whether one of its
    verticals with y1 < y reaches below y."""
    vs = vs[vs[:, 2] - vs[:, 1] > 1]  # one between adjacent rows has no row to cross inside
    upto = np.cumsum(np.bincount(vs[:, 0], minlength=width))  # verticals with x <= column
    lo, hi = upto[hs[:, 1]], upto[hs[:, 2] - 1]
    keep = lo < hi
    lo, hi, y = lo[keep], hi[keep], hs[keep, 0]
    slot = np.arange(len(vs))
    order = slot  # the verticals in (block, y1) order at the current level
    k = 0
    while len(lo):
        keys = (slot >> k) * height + vs[order, 1]
        if k:  # each level-k block merges two sorted level-(k-1) blocks
            sort = np.argsort(keys, kind="stable")
            order, keys = order[sort], keys[sort]
        reach = np.maximum.accumulate((slot >> k) * height + vs[order, 2])
        left, right = (lo & 1) == 1, (hi & 1) == 1  # the blocks a parent would overrun
        block = np.concatenate([lo[left], hi[right] - 1])
        q = block * height + np.concatenate([y[left], y[right]])
        at = np.searchsorted(keys, q, "left")  # block's verticals with y1 < y end at at - 1
        hit = at > (block << k)
        if np.any(reach[at[hit] - 1] > q[hit]):
            return True
        lo, hi = (lo + left) >> 1, (hi - right) >> 1
        keep = lo < hi
        lo, hi, y = lo[keep], hi[keep], y[keep]
        k += 1
    return False


def check_planar(d: GridDrawing) -> bool:
    """No two edges share a point except a common endpoint, and no node lies
    in the interior of any edge. build_report's verdict: one search per
    level of a dyadic split of the verticals for the crossings; handles 1e6
    edges. ValueError if d is not an orthogonal grid drawing."""
    r = build_report(d)
    if not (r.on_grid and r.orthogonal):
        raise ValueError("check_planar requires an orthogonal grid drawing")
    return r.planar


def _planar(r: NodeRanks, h: tuple, v: tuple, hs: np.ndarray, vs: np.ndarray) -> bool:
    """check_planar's core, on distinct nodes. A node lies strictly inside a
    horizontal edge (a, b) iff their places in (y, x) order differ by more
    than one; likewise for a vertical edge in (x, y) order.

    No collinear-overlap pass is needed: two runs on one line that share
    more than a point either start at different nodes, and then the later
    start lies strictly inside the other run, or start at the same node,
    and then the shorter run's far end lies strictly inside the longer one
    (equal runs would join the same two nodes twice)."""
    if (np.any(np.abs(r.place_yx[h[0]] - r.place_yx[h[1]]) > 1)
            or np.any(np.abs(r.place_xy[v[0]] - r.place_xy[v[1]]) > 1)):
        return False
    # runs on a column are now disjoint, so no two share an upper end: each
    # put at that end's place in (x, y) order, they fall in x order unsorted
    at = np.full(len(r.rx), -1)
    at[np.minimum(r.place_xy[v[0]], r.place_xy[v[1]])] = np.arange(len(vs))
    return not _interior_crossing(hs, vs[at[at >= 0]], r.nx, r.ny)


def check_top_visibility(d: GridDrawing) -> bool:
    """The vertical half-line going up from the root meets the drawing only
    at the root. False on a drawing that is not an orthogonal grid drawing."""
    return build_report(d).top_visible


def _top_visible(r: NodeRanks, root: int, hs: np.ndarray) -> bool:
    """No node above the root on its column, and no horizontal run across
    that column above the root. A horizontal run that only touches the
    column there, and a vertical run on it there, end at such a node."""
    x, y = r.rx[root], r.ry[root]
    return not (np.any((r.rx == x) & (r.ry < y))
                or np.any((hs[:, 0] < y) & (hs[:, 1] < x) & (x < hs[:, 2])))


def _subtree_boxes(r: NodeRanks, t: TernaryTree) -> np.ndarray:
    """Rows (xmin, ymin, -xmax, -ymax) over each node's subtree, indexed by
    node id, in int32 ranks: ranks keep order, so the same boxes meet. The
    four rank rows are reduced by one minimum over every subtree, in
    O(log depth) passes (``t.reduce_subtrees``)."""
    Q = np.stack([r.rx, r.ry]).astype(np.int32)
    return t.reduce_subtrees(np.minimum, np.concatenate([Q, -Q]))


def _separated(r: NodeRanks, t: TernaryTree, parent: np.ndarray, child: np.ndarray) -> bool:
    """Sibling subtrees' closed boxes pairwise disjoint: edges are ordered by
    parent, so siblings sit one or two entries apart. With boxes stored as
    (xmin, ymin, -xmax, -ymax), a and b overlap iff a[:2] <= -b[2:] and
    b[:2] <= -a[2:]."""
    box = _subtree_boxes(r, t)
    for gap in (1, 2):
        sib = np.flatnonzero(parent[:-gap] == parent[gap:])
        a, b = box[:, child[sib]], box[:, child[sib + gap]]
        if np.any((a[0] + b[2] <= 0) & (a[1] + b[3] <= 0)
                  & (b[0] + a[2] <= 0) & (b[1] + a[3] <= 0)):
            return False
    return True


def check_subtree_separation(d: GridDrawing) -> bool:
    """Bounding boxes of the subtrees hanging off any node are pairwise
    disjoint as closed rectangles. The local sibling condition implies the
    global pairwise one (two node-disjoint subtrees nest inside distinct
    child subtrees at their roots' lowest common ancestor)."""
    return build_report(d).subtree_separated


def fib_lower_bound(h: int) -> int:
    """f(1)=1, f(2)=2, f(h)=f(h-1)+f(h-2): lower bound on leg/arm lengths and
    hence on both sides of any drawing of T_h."""
    if h < 1:
        raise ValueError("h must be >= 1")
    a, b = 1, 2
    for _ in range(h - 1):
        a, b = b, a + b
    return a


def leg_arm_lengths(d: GridDrawing) -> tuple[int, int, int]:
    """Lengths (grid lines spanned) of the leg and of the left/right arms of
    a drawing of a complete ternary tree.

    The leg starts at the root child alone on one of the root's two lines;
    the arms start at the two children on the other line. The left arm is
    the one whose cross product with the leg is positive, the leg turned a
    quarter clockwise on the y-down screen, so left arm, leg, right arm
    occur counterclockwise around the root. Every root-to-leaf path of T_h
    has h nodes, so each chain is one walk of h - 2 steps below its root
    child, each to the unique child on the chain's line. VerificationError
    if no line holds a leg alone, the arms are not on either side of the
    leg, or a step has no unique child to take.
    """
    t = d.tree
    h = t.complete_height
    if h is None:
        raise VerificationError("leg/arm lengths are defined for complete ternary trees")
    if h == 1:
        return 1, 1, 1
    P, table = d.pos, t.table
    root = P[t.root].tolist()
    kids = table[t.root].tolist()  # a complete tree's inner nodes have 3 children
    at = P[kids].tolist()
    on = [[i for i in range(3) if at[i][a] == root[a]] for a in (0, 1)]  # column, row
    count = list(map(len, on))
    if sorted(count) != [1, 2]:
        raise VerificationError("cannot identify a unique leg among the root children")
    a = count.index(1)  # the axis the leg's line fixes
    (leg,), arms = on[a], on[1 - a]
    (lx, ly), (px, py), (qx, qy) = ([u - r for u, r in zip(at[i], root)] for i in (leg, *arms))
    turn = lx * py - ly * px
    if turn * (lx * qy - ly * qx) >= 0:  # both arms on one side, or a child on the root
        raise VerificationError("the arms are not on either side of the leg")
    left, right = arms if turn > 0 else arms[::-1]

    def chain_length(c: int, axis: int) -> int:
        fixed, chain = root[axis], [c]
        for _ in range(h - 2):
            line = [v for v in table[c].tolist() if P.item(v, axis) == fixed]
            if len(line) != 1:
                raise VerificationError("chain continuation is ambiguous")
            c, = line
            chain.append(c)
        span = [root[1 - axis], *P[chain, 1 - axis].tolist()]
        return max(span) - min(span) + 1

    return (chain_length(kids[leg], a), chain_length(kids[left], 1 - a),
            chain_length(kids[right], 1 - a))


def build_report(d: GridDrawing) -> VerificationReport:
    """All checks, reading one ranking of the nodes, one pair of edge arrays
    and one set of runs. Before the crossing search, node_ranks sorts n
    entries only for each axis or place key too sparse to count: four sorts
    at most. The arrays derived from d.pos die on return, not kept with the
    drawing, so they never add to a caller's peak memory."""
    parent, child = edge_arrays(d.tree)
    r = node_ranks(d.pos)
    h, v, hs, vs = rank_runs(r, parent, child)
    sep = _separated(r, d.tree, parent, child)
    orthogonal = len(hs) + len(vs) == len(parent)
    valid = r.on_grid and orthogonal
    planar = valid and _planar(r, h, v, hs, vs)
    top = valid and _top_visible(r, d.tree.root, hs)
    ext = extents(d)
    leg = lam = rho = None
    if planar:
        try:
            leg, lam, rho = leg_arm_lengths(d)
        except VerificationError:
            pass
    return VerificationReport(planar, orthogonal, r.on_grid, top, sep, ext, leg, lam, rho)


def report_to_json(r: VerificationReport) -> str:
    ext = r.extents
    payload = {
        "planar": r.planar,
        "orthogonal": r.orthogonal,
        "onGrid": r.on_grid,
        "topVisible": r.top_visible,
        "subtreeSeparated": r.subtree_separated,
        "width": ext.width,
        "height": ext.height,
        "leftWidth": ext.left_width,
        "rightWidth": ext.right_width,
        "topHeight": ext.top_height,
        "bottomHeight": ext.bottom_height,
        "area": ext.area,
        "legLength": r.leg_length,
        "leftArmLength": r.left_arm_length,
        "rightArmLength": r.right_arm_length,
    }
    return json.dumps(payload, indent=2)
