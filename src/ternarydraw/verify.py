"""Geometric validation of grid drawings and measurement of the metrics the
layout constructions are supposed to guarantee."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import (Extents, GridDrawing, edge_arrays, segment_extents,
                       split_segments)
from .geometry import edge_segments, extents  # unused here; perfbench/child.py wraps them
from .tree import TernaryTree, complete_height


class VerificationError(Exception):
    """A measurement the drawing was expected to support could not be made."""


@dataclass(frozen=True)
class VerificationReport:
    planar: bool
    orthogonal: bool
    on_grid: bool
    top_visible: bool
    subtree_separated: bool
    extents: Optional[Extents]  # None off the grid, where no grid lines are counted
    leg_length: Optional[int] = None
    left_arm_length: Optional[int] = None
    right_arm_length: Optional[int] = None


def _split(d: GridDrawing) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    return (d.pos, *split_segments(d.pos, *edge_arrays(d.tree)))


def _on_grid(P: np.ndarray) -> bool:
    if P.dtype.kind == "f":  # GridDrawing keeps floats only when one is not integral
        return False
    S = P[np.lexsort((P[:, 0], P[:, 1]))]
    return not np.any((S[1:, 0] == S[:-1, 0]) & (S[1:, 1] == S[:-1, 1]))


def check_on_grid(d: GridDrawing) -> bool:
    """Integer coordinates, pairwise distinct."""
    return _on_grid(d.pos)


def check_orthogonal(d: GridDrawing) -> bool:
    """Every edge a horizontal or vertical segment of positive length."""
    return _split(d)[3]


def check_orthogonal_grid(d: GridDrawing) -> bool:
    return check_on_grid(d) and check_orthogonal(d)


def _ranks(*columns: np.ndarray) -> tuple[int, list[np.ndarray]]:
    """Dense ranks of the values of all columns together: the number of
    distinct values, and each column's ranks."""
    values, rank = np.unique(np.concatenate(columns), return_inverse=True)
    return len(values), np.split(rank, np.cumsum([len(c) for c in columns[:-1]]))


def _node_inside(line: np.ndarray, at: np.ndarray, runs: np.ndarray, width: int) -> bool:
    """Some node (line, at) with lo < at < hi for a run (line, lo, hi); all
    in rank space, width the number of ranks along a line. A run's ends are
    nodes and the nodes are distinct, so a node lies strictly inside iff the
    ranks of the ends' keys among the node keys differ by more than one."""
    base = runs[:, 0] * width
    _, (_, lo, hi) = _ranks(line * width + at, base + runs[:, 1], base + runs[:, 2])
    return bool(np.any(hi - lo > 1))


def _collinear_overlap(runs: np.ndarray, width: int) -> bool:
    """Two runs (line, lo, hi) on one line sharing more than an endpoint. In
    (line, lo) order, a run overlaps an earlier one on its line iff the
    running max of line * width + hi before it exceeds line * width + lo."""
    if len(runs) < 2:
        return False
    r = runs[np.lexsort((runs[:, 1], runs[:, 0]))]
    reach = np.maximum.accumulate(r[:, 0] * width + r[:, 2])
    return bool(np.any(reach[:-1] > r[1:, 0] * width + r[1:, 1]))


def _interior_crossing(hs: np.ndarray, vs: np.ndarray, height: int) -> bool:
    """Some vertical (x, y1, y2) and horizontal (y, x1, x2) with x1 < x < x2
    and y1 < y < y2, in rank space (height ranks along a column). With the
    verticals in x order, each horizontal's open x-range is a run of vertical
    indices, split bottom-up into dyadic blocks. At level k the verticals are
    sorted by (block, y1) and carry a running max of block * height + y2, so
    one searchsorted per level finds, for each block asked about, whether
    one of its verticals with y1 < y reaches below y."""
    if not len(hs) or not len(vs):
        return False
    hs = hs[np.argsort(hs[:, 1])]  # keeps the searches' needles nearly sorted
    vs = vs[np.argsort(vs[:, 0], kind="stable")]
    lo = np.searchsorted(vs[:, 0], hs[:, 1], "right")
    hi = np.searchsorted(vs[:, 0], hs[:, 2], "left")
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
    in the interior of any edge. A fixed number of numpy sorts and searches,
    plus one search per level of a dyadic split of the verticals for the
    crossings; handles 1e6 edges."""
    P, hs, vs, orthogonal = _split(d)
    if not (orthogonal and _on_grid(P)):
        raise ValueError("check_planar requires an orthogonal grid drawing")
    return _planar(P, hs, vs)


def _planar(P: np.ndarray, hs: np.ndarray, vs: np.ndarray) -> bool:
    """check_planar's core. Every run ends at nodes, so ranking the runs'
    coordinates with the nodes' x and y values keeps order and equality and
    keeps every combined key below n**2."""
    nx, (rx, hx1, hx2, vx) = _ranks(P[:, 0], hs[:, 1], hs[:, 2], vs[:, 0])
    ny, (ry, hy, vy1, vy2) = _ranks(P[:, 1], hs[:, 0], vs[:, 1], vs[:, 2])
    H, V = np.stack([hy, hx1, hx2], axis=1), np.stack([vx, vy1, vy2], axis=1)
    return not (_node_inside(ry, rx, H, nx) or _node_inside(rx, ry, V, ny)
                or _collinear_overlap(H, nx) or _collinear_overlap(V, ny)
                or _interior_crossing(H, V, ny))


def naive_check_planar(d: GridDrawing) -> bool:
    """O(m^2) all-pairs oracle for check_planar (numpy-vectorized brute
    force). Intended for m <= a few thousand."""
    P, hs, vs, orthogonal = _split(d)
    if not (orthogonal and _on_grid(P)):
        raise ValueError("naive_check_planar requires an orthogonal grid drawing")
    px, py = P[:, 0], P[:, 1]
    hy, hx1, hx2 = hs.T
    vx, vy1, vy2 = vs.T
    # node strictly inside a horizontal / vertical edge
    if np.any((py[:, None] == hy) & (px[:, None] > hx1) & (px[:, None] < hx2)):
        return False
    if np.any((px[:, None] == vx) & (py[:, None] > vy1) & (py[:, None] < vy2)):
        return False
    # proper overlap of two edges on one line
    for line, lo, hi in (hs.T, vs.T):
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
    P, hs, vs, _ = _split(d)
    return _top_visible(P, d.tree.root, hs, vs)


def _top_visible(P: np.ndarray, root: int, hs: np.ndarray, vs: np.ndarray) -> bool:
    rx, ry = P[root]
    return not (np.any((P[:, 0] == rx) & (P[:, 1] < ry))
                or np.any((hs[:, 0] < ry) & (hs[:, 1] <= rx) & (rx <= hs[:, 2]))
                or np.any((vs[:, 0] == rx) & (vs[:, 1] < ry)))


def _subtree_boxes(P: np.ndarray, t: TernaryTree) -> np.ndarray:
    """Per node, (xmin, ymin, -xmax, -ymax) over its subtree.

    topo_order() is a preorder, so a subtree is the block of its size from
    its root on. Each block's minimum comes from the sparse table of
    power-of-two windows, built one level at a time: O(log n) passes
    whatever the tree's height."""
    order, start, length = t.walk
    level = np.frexp(length)[1] - 1  # floor(log2(length))
    by_level = np.argsort(level, kind="stable")
    bounds = np.searchsorted(level[by_level], np.arange(level.max() + 2))
    Q = P[order]
    table = np.concatenate([Q, -Q], axis=1)  # windows of 1
    box = np.empty_like(table)
    for k in range(len(bounds) - 1):
        if k:  # windows of 2**k from two of 2**(k-1)
            w = 1 << (k - 1)
            table = np.minimum(table[:-w], table[w:])
        v = by_level[bounds[k]:bounds[k + 1]]
        a = start[v]
        box[v] = np.minimum(table[a], table[a + length[v] - (1 << k)])
    return box


def _separated(P: np.ndarray, t: TernaryTree, parent: np.ndarray, child: np.ndarray) -> bool:
    """Sibling subtrees' closed boxes pairwise disjoint: edges are ordered by
    parent, so siblings sit one or two entries apart. With boxes stored as
    (xmin, ymin, -xmax, -ymax), a and b overlap iff a[:2] <= -b[2:] and
    b[:2] <= -a[2:]."""
    box = _subtree_boxes(P, t)
    for gap in (1, 2):
        sib = parent[:-gap] == parent[gap:]
        a, b = box[child[:-gap][sib]], box[child[gap:][sib]]
        if np.any(np.all(a[:, :2] + b[:, 2:] <= 0, axis=1) & np.all(b[:, :2] + a[:, 2:] <= 0, axis=1)):
            return False
    return True


def check_subtree_separation(d: GridDrawing) -> bool:
    """Bounding boxes of the subtrees hanging off any node are pairwise
    disjoint as closed rectangles. The local sibling condition implies the
    global pairwise one (two node-disjoint subtrees nest inside distinct
    child subtrees at their roots' lowest common ancestor)."""
    return _separated(d.pos, d.tree, *edge_arrays(d.tree))


def brute_subtree_separation(d: GridDrawing) -> bool:
    """Oracle: check ALL node-disjoint subtree pairs (ancestry-free node
    pairs), each box taken over the subtree's members found from ancestor
    sets. O(n^2); for small drawings only."""
    n, pos = d.tree.n, d.pos.tolist()
    ancestors: list[set[int]] = [set() for _ in range(n)]
    for v in d.tree.topo_order():
        p = d.tree.parent(v)
        if p is not None:
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
    h = complete_height(t)
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
            if t.is_leaf(cur):
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
    """All checks, sharing one coordinate array, one pair of edge arrays and
    one split. The arrays derived from d.pos die on return, not kept with the
    drawing, so they never add to a caller's peak memory."""
    P = d.pos
    parent, child = edge_arrays(d.tree)
    on_grid = _on_grid(P)
    sep = _separated(P, d.tree, parent, child)
    hs, vs, orthogonal = split_segments(P, parent, child)
    valid = on_grid and orthogonal
    planar = valid and _planar(P, hs, vs)
    top = valid and _top_visible(P, d.tree.root, hs, vs)
    ext = None if P.dtype.kind == "f" else segment_extents(P, d.tree.root, hs, vs)
    leg = lam = rho = None
    if planar:
        try:
            leg, lam, rho = leg_arm_lengths(d)
        except VerificationError:
            pass
    return VerificationReport(planar, orthogonal, on_grid, top, sep, ext, leg, lam, rho)


def report_to_json(r: VerificationReport) -> str:
    ext = r.extents
    counts = (None,) * 7 if ext is None else (
        ext.width, ext.height, ext.left_width, ext.right_width, ext.top_height,
        ext.bottom_height, ext.area)
    payload = {
        "planar": r.planar,
        "orthogonal": r.orthogonal,
        "onGrid": r.on_grid,
        "topVisible": r.top_visible,
        "subtreeSeparated": r.subtree_separated,
        **dict(zip(("width", "height", "leftWidth", "rightWidth", "topHeight",
                    "bottomHeight", "area"), counts)),
        "legLength": r.leg_length,
        "leftArmLength": r.left_arm_length,
        "rightArmLength": r.right_arm_length,
    }
    return json.dumps(payload, indent=2)
