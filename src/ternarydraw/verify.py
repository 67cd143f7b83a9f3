"""Geometric validation of grid drawings and measurement of the metrics the
layout constructions are supposed to guarantee."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import (Extents, GridDrawing, NodeRanks, edge_arrays, edge_segments,
                       node_ranks, rank_extents, rank_runs)
from .geometry import extents  # unused here; perfbench/child.py wraps verify.extents
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


def _ranked(d: GridDrawing) -> tuple:
    """The shared pass: node ranks, edge arrays, rank_runs' edges and runs."""
    parent, child = edge_arrays(d.tree)
    r = node_ranks(d.pos)
    return r, parent, child, *rank_runs(r, parent, child)


def check_on_grid(d: GridDrawing) -> bool:
    """Pairwise distinct points (GridDrawing holds only integers)."""
    return node_ranks(d.pos).on_grid


def check_orthogonal(d: GridDrawing) -> bool:
    """Every edge a horizontal or vertical segment of positive length."""
    _, parent, _, _, _, hs, vs = _ranked(d)
    return len(hs) + len(vs) == len(parent)


def check_orthogonal_grid(d: GridDrawing) -> bool:
    return check_on_grid(d) and check_orthogonal(d)


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
    if not len(hs) or not len(vs):
        return False
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
    in the interior of any edge. Reads the shared node ranks, plus one
    search per level of a dyadic split of the verticals for the crossings;
    handles 1e6 edges."""
    r, parent, _, h, v, hs, vs = _ranked(d)
    if not (r.on_grid and len(hs) + len(vs) == len(parent)):
        raise ValueError("check_planar requires an orthogonal grid drawing")
    return _planar(r, h, v, hs, vs)


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
    return not _interior_crossing(hs, vs[at[at >= 0]], len(r.ux), len(r.uy))


def naive_check_planar(d: GridDrawing) -> bool:
    """O(m^2) all-pairs oracle for check_planar (numpy-vectorized brute
    force). Intended for m <= a few thousand."""
    if not check_orthogonal_grid(d):
        raise ValueError("naive_check_planar requires an orthogonal grid drawing")
    x1, y1, x2, y2 = edge_segments(d).T
    h, v = y1 == y2, x1 == x2
    hy, hx1, hx2 = hs = np.stack([y1[h], np.minimum(x1, x2)[h], np.maximum(x1, x2)[h]])
    vx, vy1, vy2 = vs = np.stack([x1[v], np.minimum(y1, y2)[v], np.maximum(y1, y2)[v]])
    px, py = d.pos.T
    # node strictly inside a horizontal / vertical edge
    if np.any((py[:, None] == hy) & (px[:, None] > hx1) & (px[:, None] < hx2)):
        return False
    if np.any((px[:, None] == vx) & (py[:, None] > vy1) & (py[:, None] < vy2)):
        return False
    # proper overlap of two edges on one line
    for line, lo, hi in (hs, vs):
        ov = (line[:, None] == line) & (lo[:, None] < hi) & (lo < hi[:, None])
        np.fill_diagonal(ov, False)
        if np.any(ov):
            return False
    cross = ((vx >= hx1[:, None]) & (vx <= hx2[:, None])
             & (hy[:, None] >= vy1) & (hy[:, None] <= vy2))
    shared_endpoint = (((vx == hx1[:, None]) | (vx == hx2[:, None]))
                       & ((hy[:, None] == vy1) | (hy[:, None] == vy2)))
    return not np.any(cross & ~shared_endpoint)


def check_top_visibility(d: GridDrawing) -> bool:
    """The vertical half-line going up from the root meets the drawing only
    at the root."""
    r, _, _, _, _, hs, _ = _ranked(d)
    return _top_visible(r, d.tree.root, hs)


def _top_visible(r: NodeRanks, root: int, hs: np.ndarray) -> bool:
    """No node above the root on its column, and no horizontal run across
    that column above the root. A horizontal run that only touches the
    column there, and a vertical run on it there, end at such a node."""
    x, y = r.rx[root], r.ry[root]
    return not (np.any((r.rx == x) & (r.ry < y))
                or np.any((hs[:, 0] < y) & (hs[:, 1] < x) & (x < hs[:, 2])))


def _subtree_boxes(r: NodeRanks, t: TernaryTree) -> np.ndarray:
    """Per place in the walk order ``t.walk[0]``, (xmin, ymin, -xmax, -ymax)
    over the subtree rooted there, in int32 ranks: ranks keep order, so the
    same boxes meet.

    The walk order is a preorder, so a subtree is the block of its size from
    its root on. Each block's minimum comes from the sparse table of
    power-of-two windows, built one level at a time: O(log n) passes
    whatever the tree's height, each reading the table forward."""
    order, _, size = t.walk
    size = size[order]
    level = (np.frexp(size)[1] - 1).astype(np.uint8)  # floor(log2(size)) < 64
    by_level = np.argsort(level, kind="stable")
    bounds = np.searchsorted(level[by_level], np.arange(int(level.max()) + 2))
    Q = np.stack([r.rx[order], r.ry[order]], axis=1).astype(np.int32)
    table = np.concatenate([Q, -Q], axis=1)  # windows of 1
    box = table.copy()  # a leaf's box is its point
    for k in range(1, len(bounds) - 1):
        w = 1 << (k - 1)  # windows of 2**k from two of 2**(k-1)
        table = np.minimum(table[:-w], table[w:])
        a = by_level[bounds[k]:bounds[k + 1]]
        box[a] = np.minimum(table[a], table[a + size[a] - (1 << k)])
    return box


def _separated(r: NodeRanks, t: TernaryTree, parent: np.ndarray, child: np.ndarray) -> bool:
    """Sibling subtrees' closed boxes pairwise disjoint: edges are ordered by
    parent, so siblings sit one or two entries apart. With boxes stored as
    (xmin, ymin, -xmax, -ymax), a and b overlap iff a[:2] <= -b[2:] and
    b[:2] <= -a[2:]."""
    box, start = _subtree_boxes(r, t), t.walk[1]
    for gap in (1, 2):
        sib = np.flatnonzero(parent[:-gap] == parent[gap:])
        a, b = box[start[child[sib]]], box[start[child[sib + gap]]]
        if np.any((a[:, 0] + b[:, 2] <= 0) & (a[:, 1] + b[:, 3] <= 0)
                  & (b[:, 0] + a[:, 2] <= 0) & (b[:, 1] + a[:, 3] <= 0)):
            return False
    return True


def check_subtree_separation(d: GridDrawing) -> bool:
    """Bounding boxes of the subtrees hanging off any node are pairwise
    disjoint as closed rectangles. The local sibling condition implies the
    global pairwise one (two node-disjoint subtrees nest inside distinct
    child subtrees at their roots' lowest common ancestor)."""
    return _separated(node_ranks(d.pos), d.tree, *edge_arrays(d.tree))


def brute_subtree_separation(d: GridDrawing) -> bool:
    """Oracle: check ALL node-disjoint subtree pairs (ancestry-free node
    pairs), each box taken over the subtree's members found from ancestor
    sets. O(n^2); for small drawings only."""
    n, pos, parents = d.tree.n, d.pos.tolist(), d.tree.parents.tolist()
    ancestors: list[set[int]] = [set() for _ in range(n)]
    for v in d.tree.walk[0].tolist():  # parents first
        p = parents[v]
        if p >= 0:
            ancestors[v] = ancestors[p] | {p}
    boxes = []
    for u in range(n):
        members = [pos[w] for w in range(n) if w == u or u in ancestors[w]]
        xs, ys = [x for x, _ in members], [y for _, y in members]
        boxes.append((min(xs), max(xs), min(ys), max(ys)))
    for u in range(n):
        for v in range(u + 1, n):
            if u in ancestors[v] or v in ancestors[u]:
                continue
            a, b = boxes[u], boxes[v]
            if a[0] <= b[1] and b[0] <= a[1] and a[2] <= b[3] and b[2] <= a[3]:
                return False
    return True


def fib_lower_bound(h: int) -> int:
    """f(1)=1, f(2)=2, f(h)=f(h-1)+f(h-2): lower bound on leg/arm lengths and
    hence on both sides of any drawing of T_h."""
    if h < 1:
        raise ValueError("h must be >= 1")
    a, b = 1, 2
    if h == 1:
        return a
    for _ in range(h - 2):
        a, b = b, a + b
    return b


def leg_arm_lengths(d: GridDrawing) -> tuple[int, int, int]:
    """Lengths (grid lines spanned) of the leg and of the left/right arms of
    a drawing of a complete ternary tree.

    The leg starts at the root child that shares its line through the root
    with no sibling; the arms are the two children on the other line. Left
    and right are assigned so that left arm, leg, right arm occur
    counterclockwise around the root. Each path descends through the unique
    child drawn on the same line; if that child is not unique the drawing is
    too ambiguous to measure and VerificationError is raised.
    """
    t = d.tree
    h = t.complete_height
    if h is None:
        raise VerificationError("leg/arm lengths are defined for complete ternary trees")
    if h == 1:
        return 1, 1, 1
    P = d.pos
    rx, ry = d.root_pos()
    kids = t.table[t.root].tolist()  # a complete tree's inner nodes have 3 children
    on_row = [c for c in kids if P[c, 1] == ry]
    on_col = [c for c in kids if P[c, 0] == rx]
    if len(on_row) == 1 and len(on_col) == 2:
        leg_child, arm_children = on_row[0], on_col
    elif len(on_col) == 1 and len(on_row) == 2:
        leg_child, arm_children = on_col[0], on_row
    else:
        raise VerificationError("cannot identify a unique leg among the root children")

    def chain_length(start: int, vertical: bool) -> int:
        fixed = rx if vertical else ry
        coords = [ry if vertical else rx]
        cur = start
        count = 2
        while True:
            x, y = P[cur].tolist()
            if (x if vertical else y) != fixed:
                raise VerificationError("path left its line")
            coords.append(y if vertical else x)
            if t.table[cur, 0] < 0:  # a leaf
                break
            on_line = [c for c in t.table[cur].tolist() if P[c, 0 if vertical else 1] == fixed]
            if len(on_line) != 1:
                raise VerificationError("chain continuation is ambiguous")
            cur = on_line[0]
            count += 1
        if count != h:
            raise VerificationError("collinear chain does not reach depth h")
        return max(coords) - min(coords) + 1

    lx, ly = P[leg_child].tolist()
    leg_vertical = lx == rx
    gamma = chain_length(leg_child, leg_vertical)
    # screen coords are y-down; counterclockwise order left arm, leg, right
    # arm puts the left arm at the leg direction rotated to (-dy, dx)
    ldx = 1 if lx > rx else (-1 if lx < rx else 0)
    ldy = 1 if ly > ry else (-1 if ly < ry else 0)
    left_dir = (-ldy, ldx)
    arms = {}
    for c in arm_children:
        cx, cy = P[c].tolist()
        adx = 1 if cx > rx else (-1 if cx < rx else 0)
        ady = 1 if cy > ry else (-1 if cy < ry else 0)
        arms[(adx, ady)] = c
    if left_dir not in arms:
        raise VerificationError("arm directions are inconsistent with the leg")
    left_child = arms[left_dir]
    right_child = arms[(-left_dir[0], -left_dir[1])]
    lam = chain_length(left_child, not leg_vertical)
    rho = chain_length(right_child, not leg_vertical)
    return gamma, lam, rho


def build_report(d: GridDrawing) -> VerificationReport:
    """All checks, reading one ranking of the nodes, one pair of edge arrays
    and one set of runs: four sorts of n entries before the crossing
    search. The arrays derived from d.pos die on return, not kept with the
    drawing, so they never add to a caller's peak memory."""
    r, parent, child, h, v, hs, vs = _ranked(d)
    sep = _separated(r, d.tree, parent, child)
    orthogonal = len(hs) + len(vs) == len(parent)
    valid = r.on_grid and orthogonal
    planar = valid and _planar(r, h, v, hs, vs)
    top = valid and _top_visible(r, d.tree.root, hs)
    ext = rank_extents(r, d.tree.root, hs, vs)
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
