"""Geometric validation of grid drawings and measurement of the metrics the
layout constructions are supposed to guarantee."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .geometry import Extents, GridDrawing, extents
from .geometry import edge_segments  # unused here; perfbench/child.py wraps it
from .tree import TernaryTree, index_dtype


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
    values, as index_dtype(n) arrays; yx, the nodes' int64 keys ry * nx + rx
    sorted, in (y, x) order; and on_grid: whether no two nodes share a
    point."""

    rx: np.ndarray
    ry: np.ndarray
    nx: int
    ny: int
    yx: np.ndarray
    on_grid: bool


def _dense_ranks(c: np.ndarray, dtype: type) -> tuple[np.ndarray, int]:
    """Each entry's rank among the distinct values of c, as dtype, and their
    count. When c spans at most len(c) values, as each axis of a layout's
    drawing does, they are counted instead of sorted (np.unique): a presence
    mask over the span and its running sum."""
    lo, hi = c.min(), c.max()
    if hi - lo >= len(c):  # sparse: only a sort bounds the work
        values, rank = np.unique(c, return_inverse=True)
        return rank.astype(dtype), len(values)
    at = c - lo
    present = np.zeros(hi - lo + 1, bool)
    present[at] = True
    rank = np.cumsum(present, dtype=dtype)
    rank -= 1
    return rank[at], int(rank[-1]) + 1


def _sorted_keys(major: np.ndarray, minor: np.ndarray, width: int) -> np.ndarray:
    """The int64 keys major * width + minor, below n**2 for ranks, sorted:
    a sort of the keys alone, with no permutation to carry."""
    key = np.multiply(major, width, dtype=np.int64)
    key += minor
    key.sort()
    return key


def node_ranks(P: np.ndarray) -> NodeRanks:
    """Dense ranks per axis by _dense_ranks, then the sorted (y, x) keys, in
    which two nodes on one point are two equal neighbours. Ranks keep order
    and equality: every check reads them in place of the coordinates."""
    (rx, nx), (ry, ny) = (_dense_ranks(c, index_dtype(len(P))) for c in P.T)
    yx = _sorted_keys(ry, rx, nx)
    return NodeRanks(rx, ry, nx, ny, yx, not np.any(yx[1:] == yx[:-1]))


class Runs(NamedTuple):
    """Edges of positive length along one axis alone, in rank space: the
    rank of each one's line, and the lower and higher of its ends' ranks
    along it."""

    line: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def rank_runs(r: NodeRanks, parent: np.ndarray, child: np.ndarray) -> tuple[Runs, Runs]:
    """The horizontal and the vertical runs. Diagonal and zero-length edges
    are in neither. Each end's two ranks are read once, and each run's
    fields are taken at the indices of its edges: a random boolean mask
    indexes several times slower than its flatnonzero."""
    xa, xb, ya, yb = r.rx[parent], r.rx[child], r.ry[parent], r.ry[child]
    dx, dy = xa != xb, ya != yb
    runs = []
    for along, line, ua, ub in ((dx > dy, ya, xa, xb), (dy > dx, xa, ya, yb)):
        e = np.flatnonzero(along)
        ua, ub = ua[e], ub[e]
        runs.append(Runs(line[e], np.minimum(ua, ub), np.maximum(ua, ub)))
    return tuple(runs)


def check_on_grid(d: GridDrawing) -> bool:
    """Pairwise distinct points (GridDrawing holds only integers)."""
    return build_report(d).on_grid


def check_orthogonal(d: GridDrawing) -> bool:
    """Every edge a horizontal or vertical segment of positive length."""
    return build_report(d).orthogonal


def _interior_crossing(h: Runs, x: np.ndarray, y1: np.ndarray, y2: np.ndarray,
                       width: int, height: int) -> bool:
    """Some vertical (x, y1, y2) and horizontal (y, x1, x2) with x1 < x < x2
    and y1 < y < y2, in rank space (width columns, height rows), the
    verticals given in x order. A horizontal's open x-range is then a run of
    vertical indices, read off a count of the verticals per column and split
    bottom-up into dyadic blocks. At level k the verticals are sorted by
    (block, y1) and carry a running max of block * height + y2, so one
    searchsorted per level finds, per block asked about, whether one of its
    verticals with y1 < y reaches below y. The int64 queries block * height
    + y are sorted first, so that the search walks the keys in order; the
    block is read back as query // height."""
    upto = np.cumsum(np.bincount(x, minlength=width))  # verticals with x <= column
    lo, hi = upto[h.lo], upto[h.hi - 1]
    keep = np.flatnonzero(lo < hi)
    lo, hi, y = lo[keep], hi[keep], h.line[keep]
    slot = np.arange(len(x))
    k = 0
    while len(lo):  # y1 and y2 hold the verticals in (block, y1) order at level k
        base = (slot >> k) * height
        keys = base + y1
        if k:  # each level-k block merges two sorted level-(k-1) blocks
            sort = np.argsort(keys, kind="stable")
            keys, y1, y2 = keys[sort], y1[sort], y2[sort]
        reach = np.maximum.accumulate(base + y2)
        left, right = lo & 1, hi & 1  # the blocks a parent would overrun
        a, b = np.flatnonzero(left), np.flatnonzero(right)
        q = np.sort(np.concatenate([lo[a] * height + y[a], (hi[b] - 1) * height + y[b]]))
        at = np.searchsorted(keys, q, "left")  # block's verticals with y1 < y end at at - 1
        hit = np.flatnonzero(at > (q // height << k))
        if np.any(reach[at[hit] - 1] > q[hit]):
            return True
        lo, hi = (lo + left) >> 1, (hi - right) >> 1
        keep = np.flatnonzero(lo < hi)
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


def _holds_a_node(keys: np.ndarray, runs: Runs, width: int) -> bool:
    """Whether a node lies strictly inside a run: whether some sorted node
    key falls strictly between line * width + lo and line * width + hi. A
    run between adjacent ranks holds none, so the longer ones alone are
    asked. Two searchsorted count the keys below each run's ends; each
    run's count is never negative, so their sum is positive iff one is, and
    the ends can be sorted apart, so that each search walks the keys in
    order."""
    long = np.flatnonzero(runs.hi - runs.lo > 1)
    first = np.multiply(runs.line[long], width, dtype=np.int64)
    lo, hi = np.sort(first + runs.lo[long]), np.sort(first + runs.hi[long])
    return int(np.searchsorted(keys, hi, "left").sum()) > int(np.searchsorted(keys, lo, "right").sum())


def _planar(r: NodeRanks, h: Runs, v: Runs) -> bool:
    """check_planar's core, on distinct nodes. No node lies strictly inside
    a horizontal run, by the (y, x) keys, nor inside a vertical one, by the
    (x, y) keys, and no vertical crosses a horizontal.

    No collinear-overlap pass is needed: two runs on one line that share
    more than a point either start at different nodes, and then the later
    start lies strictly inside the other run, or start at the same node,
    and then the shorter run's far end lies strictly inside the longer one
    (equal runs would join the same two nodes twice). A vertical between
    adjacent rows has no row to cross inside, so the crossing search takes
    the longer ones alone, in column order."""
    if _holds_a_node(r.yx, h, r.nx) or _holds_a_node(_sorted_keys(r.rx, r.ry, r.ny), v, r.ny):
        return False
    long = np.flatnonzero(v.hi - v.lo > 1)
    long = long[np.argsort(v.line[long])]
    return not _interior_crossing(h, v.line[long], v.lo[long], v.hi[long], r.nx, r.ny)


def check_top_visibility(d: GridDrawing) -> bool:
    """The vertical half-line going up from the root meets the drawing only
    at the root. False on a drawing that is not an orthogonal grid drawing."""
    return build_report(d).top_visible


def _top_visible(r: NodeRanks, root: int, h: Runs) -> bool:
    """No node above the root on its column, and no horizontal run across
    that column above the root. A horizontal run that only touches the
    column there, and a vertical run on it there, end at such a node."""
    x, y = r.rx[root], r.ry[root]
    return not (np.any((r.rx == x) & (r.ry < y))
                or np.any((h.line < y) & (h.lo < x) & (x < h.hi)))


def _subtree_boxes(r: NodeRanks, t: TernaryTree) -> np.ndarray:
    """Rows (xmin, ymin, -xmax, -ymax) over each node's subtree, indexed by
    node id, in ranks: ranks keep order, so the same boxes meet. The four
    rank rows are reduced by one minimum over every subtree, in O(log depth)
    passes (``t.reduce_subtrees``)."""
    Q = np.stack([r.rx, r.ry])
    return t.reduce_subtrees(np.minimum, np.concatenate([Q, -Q]))


def _separated(r: NodeRanks, t: TernaryTree) -> bool:
    """Sibling subtrees' closed boxes pairwise disjoint: the children in
    slots 0 and 1, 1 and 2, and 0 and 2 of every node with two or more, read
    off the child table, each slot's boxes gathered once. With boxes stored
    as (xmin, ymin, -xmax, -ymax), a and b overlap iff a[:2] <= -b[2:] and
    b[:2] <= -a[2:]. An empty slot 2 reads the last node's box, and its
    pairs are dropped."""
    box, table = _subtree_boxes(r, t), t.table
    two = np.flatnonzero(table[:, 1] >= 0)
    slots = [table[two, s] for s in range(3)]
    a, b, c = ([row[kids] for row in box] for kids in slots)

    def overlap(p, q):
        return (p[0] + q[2] <= 0) & (p[1] + q[3] <= 0) & (q[0] + p[2] <= 0) & (q[1] + p[3] <= 0)

    return not (np.any(overlap(a, b)) or np.any((slots[2] >= 0) & (overlap(b, c) | overlap(a, c))))


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
    """All checks, reading one ranking of the nodes, one edge up from each
    node but the root, and one set of runs, in index_dtype ranks. Before the crossing search,
    n entries are argsorted only for an axis too sparse to count; the (y, x)
    and (x, y) keys are sorted alone. The arrays derived from d.pos die on
    return, not kept with the drawing, so they never add to a caller's peak
    memory."""
    child = np.flatnonzero(d.tree.parents >= 0)  # one edge up from every node but the root
    r = node_ranks(d.pos)
    h, v = rank_runs(r, d.tree.parents[child], child)
    del child
    sep = _separated(r, d.tree)
    orthogonal = len(h.line) + len(v.line) == d.tree.n - 1
    valid = r.on_grid and orthogonal
    planar = valid and _planar(r, h, v)
    top = valid and _top_visible(r, d.tree.root, h)
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
