"""Geometric validation of grid drawings and measurement of the metrics the
layout constructions are supposed to guarantee."""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import Extents, GridDrawing, segment_extents, split_segments
from .geometry import edge_segments, extents  # unused here; perfbench/child.py wraps them
from .tree import complete_height


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


def _is_integral(c) -> bool:
    return isinstance(c, (int, np.integer)) or (isinstance(c, float) and c.is_integer())


def check_on_grid(d: GridDrawing) -> bool:
    """Integer coordinates, pairwise distinct."""
    if not all(_is_integral(x) and _is_integral(y) for x, y in d.pos):
        return False
    return len(set(d.pos)) == len(d.pos)


def check_orthogonal(d: GridDrawing) -> bool:
    """Every edge a horizontal or vertical segment of positive length."""
    return split_segments(d)[2]


def check_orthogonal_grid(d: GridDrawing) -> bool:
    return check_on_grid(d) and check_orthogonal(d)


def _node_in_edge_interior(d: GridDrawing, hs, vs) -> bool:
    by_row: dict[int, list[int]] = {}
    by_col: dict[int, list[int]] = {}
    for x, y in d.pos:
        by_row.setdefault(y, []).append(x)
        by_col.setdefault(x, []).append(y)
    for xs in by_row.values():
        xs.sort()
    for ys in by_col.values():
        ys.sort()
    for y, x1, x2 in hs:
        xs = by_row.get(y, ())
        if bisect_right(xs, x2 - 1) - bisect_left(xs, x1 + 1) > 0:
            return True
    for x, y1, y2 in vs:
        ys = by_col.get(x, ())
        if bisect_right(ys, y2 - 1) - bisect_left(ys, y1 + 1) > 0:
            return True
    return False


def _collinear_overlap(segs) -> bool:
    """segs: (line, lo, hi); overlap of two segments on the same line (beyond
    a single shared endpoint) is a violation."""
    by_line: dict[int, list[tuple[int, int]]] = {}
    for line, lo, hi in segs:
        by_line.setdefault(line, []).append((lo, hi))
    for spans in by_line.values():
        spans.sort()
        max_end = None
        for lo, hi in spans:
            if max_end is not None and lo < max_end:
                return True
            max_end = hi if max_end is None else max(max_end, hi)
    return False


class _Bit:
    def __init__(self, n: int):
        self.n = n
        self.t = [0] * (n + 1)

    def add(self, i: int, v: int) -> None:
        i += 1
        while i <= self.n:
            self.t[i] += v
            i += i & -i

    def prefix(self, i: int) -> int:  # sum of [0, i)
        s = 0
        while i > 0:
            s += self.t[i]
            i -= i & -i
        return s


def _interior_crossing(hs, vs) -> bool:
    """Sweep by row: count vertical segments whose open y-interval contains
    the row and whose x lies strictly inside a horizontal span. Any such pair
    crosses interior-to-interior."""
    if not hs or not vs:
        return False
    xs = sorted({x for x, _, _ in vs})
    idx = {x: i for i, x in enumerate(xs)}
    adds = sorted(vs, key=lambda s: s[1])
    rems = sorted(vs, key=lambda s: s[2])
    bit = _Bit(len(xs))
    rows: dict[int, list[tuple[int, int]]] = {}
    for y, x1, x2 in hs:
        rows.setdefault(y, []).append((x1, x2))
    ai = ri = 0
    for y in sorted(rows):
        while ai < len(adds) and adds[ai][1] < y:
            bit.add(idx[adds[ai][0]], 1)
            ai += 1
        while ri < len(rems) and rems[ri][2] <= y:
            bit.add(idx[rems[ri][0]], -1)
            ri += 1
        for x1, x2 in rows[y]:
            lo = bisect_left(xs, x1 + 1)
            hi = bisect_right(xs, x2 - 1)
            if hi > lo and bit.prefix(hi) - bit.prefix(lo) > 0:
                return True
    return False


def check_planar(d: GridDrawing) -> bool:
    """No two edges share a point except a common endpoint, and no node lies
    in the interior of any edge. Sweep-based; handles 1e5 edges."""
    hs, vs, orthogonal = split_segments(d)
    if not (orthogonal and check_on_grid(d)):
        raise ValueError("check_planar requires an orthogonal grid drawing")
    return _planar(d, hs, vs)


def _planar(d: GridDrawing, hs, vs) -> bool:
    if _node_in_edge_interior(d, hs, vs):
        return False
    if _collinear_overlap(hs) or _collinear_overlap(vs):
        return False
    return not _interior_crossing(hs, vs)


def naive_check_planar(d: GridDrawing) -> bool:
    """O(m^2) all-pairs oracle for check_planar (numpy-vectorized brute
    force). Intended for m <= a few thousand."""
    hs, vs, orthogonal = split_segments(d)
    if not (orthogonal and check_on_grid(d)):
        raise ValueError("naive_check_planar requires an orthogonal grid drawing")
    px = np.array([p[0] for p in d.pos])
    py = np.array([p[1] for p in d.pos])
    if hs:
        hy = np.array([s[0] for s in hs])
        hx1 = np.array([s[1] for s in hs])
        hx2 = np.array([s[2] for s in hs])
        # node strictly inside a horizontal edge
        if np.any((py[:, None] == hy) & (px[:, None] > hx1) & (px[:, None] < hx2)):
            return False
        # proper overlap of two horizontal edges on one row
        ov = ((hy[:, None] == hy) & (hx1[:, None] < hx2) & (hx1 < hx2[:, None]))
        np.fill_diagonal(ov, False)
        if np.any(ov):
            return False
    if vs:
        vx = np.array([s[0] for s in vs])
        vy1 = np.array([s[1] for s in vs])
        vy2 = np.array([s[2] for s in vs])
        if np.any((px[:, None] == vx) & (py[:, None] > vy1) & (py[:, None] < vy2)):
            return False
        ov = ((vx[:, None] == vx) & (vy1[:, None] < vy2) & (vy1 < vy2[:, None]))
        np.fill_diagonal(ov, False)
        if np.any(ov):
            return False
    if hs and vs:
        cross = ((vx >= hx1[:, None]) & (vx <= hx2[:, None])
                 & (hy[:, None] >= vy1) & (hy[:, None] <= vy2))
        shared_endpoint = (((vx == hx1[:, None]) | (vx == hx2[:, None]))
                           & ((hy[:, None] == vy1) | (hy[:, None] == vy2)))
        if np.any(cross & ~shared_endpoint):
            return False
    return True


def check_top_visibility(d: GridDrawing) -> bool:
    """The vertical half-line going up from the root meets the drawing only
    at the root."""
    hs, vs, _ = split_segments(d)
    return _top_visible(d, hs, vs)


def _top_visible(d: GridDrawing, hs, vs) -> bool:
    rx, ry = d.root_pos()
    for x, y in d.pos:
        if x == rx and y < ry:
            return False
    for y, x1, x2 in hs:
        if y < ry and x1 <= rx <= x2:
            return False
    for x, y1, y2 in vs:
        if x == rx and y1 < ry:
            return False
    return True


def _subtree_boxes(d: GridDrawing) -> list[tuple[int, int, int, int]]:
    n = d.tree.n
    boxes = [(x, x, y, y) for x, y in d.pos]
    for v in reversed(d.tree.topo_order()):
        x1, x2, y1, y2 = boxes[v]
        for c in d.tree.children[v]:
            cx1, cx2, cy1, cy2 = boxes[c]
            x1 = min(x1, cx1)
            x2 = max(x2, cx2)
            y1 = min(y1, cy1)
            y2 = max(y2, cy2)
        boxes[v] = (x1, x2, y1, y2)
    return boxes


def _boxes_overlap(a, b) -> bool:
    return a[0] <= b[1] and b[0] <= a[1] and a[2] <= b[3] and b[2] <= a[3]


def check_subtree_separation(d: GridDrawing) -> bool:
    """Bounding boxes of the subtrees hanging off any node are pairwise
    disjoint as closed rectangles. The local sibling condition implies the
    global pairwise one (two node-disjoint subtrees nest inside distinct
    child subtrees at their roots' lowest common ancestor)."""
    boxes = _subtree_boxes(d)
    for v in range(d.tree.n):
        kids = d.tree.children[v]
        for i in range(len(kids)):
            for j in range(i + 1, len(kids)):
                if _boxes_overlap(boxes[kids[i]], boxes[kids[j]]):
                    return False
    return True


def brute_subtree_separation(d: GridDrawing) -> bool:
    """Oracle: check ALL node-disjoint subtree pairs (ancestry-free node
    pairs). O(n^2); for small drawings only."""
    n = d.tree.n
    boxes = _subtree_boxes(d)
    ancestors: list[set[int]] = [set() for _ in range(n)]
    for v in d.tree.topo_order():
        p = d.tree.parent(v)
        if p is not None:
            ancestors[v] = ancestors[p] | {p}
    for u in range(n):
        for v in range(u + 1, n):
            if u in ancestors[v] or v in ancestors[u]:
                continue
            if _boxes_overlap(boxes[u], boxes[v]):
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
    rx, ry = d.root_pos()
    kids = t.children[t.root]
    on_row = [c for c in kids if d.pos[c][1] == ry]
    on_col = [c for c in kids if d.pos[c][0] == rx]
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
            x, y = d.pos[cur]
            if (x if vertical else y) != fixed:
                raise VerificationError("path left its line")
            coords.append(y if vertical else x)
            if t.is_leaf(cur):
                break
            on_line = [c for c in t.children[cur]
                       if (d.pos[c][0] if vertical else d.pos[c][1]) == fixed]
            if len(on_line) != 1:
                raise VerificationError("chain continuation is ambiguous")
            cur = on_line[0]
            count += 1
        if count != h:
            raise VerificationError("collinear chain does not reach depth h")
        return max(coords) - min(coords) + 1

    leg_vertical = d.pos[leg_child][0] == rx
    gamma = chain_length(leg_child, leg_vertical)
    lx, ly = d.pos[leg_child]
    # screen coords are y-down; counterclockwise order left arm, leg, right
    # arm puts the left arm at the leg direction rotated to (-dy, dx)
    ldx = 1 if lx > rx else (-1 if lx < rx else 0)
    ldy = 1 if ly > ry else (-1 if ly < ry else 0)
    left_dir = (-ldy, ldx)
    arms = {}
    for c in arm_children:
        cx, cy = d.pos[c]
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
    """All checks, sharing one split of the edges. The runs die on return,
    not kept with the drawing, so they never add to a caller's peak memory."""
    on_grid = check_on_grid(d)
    sep = check_subtree_separation(d)
    hs, vs, orthogonal = split_segments(d)
    valid = on_grid and orthogonal
    planar = valid and _planar(d, hs, vs)
    top = valid and _top_visible(d, hs, vs)
    ext = segment_extents(d, hs, vs)
    leg = lam = rho = None
    if planar:
        try:
            leg, lam, rho = leg_arm_lengths(d)
        except VerificationError:
            pass
    return VerificationReport(planar, orthogonal, on_grid, top, sep, ext, leg, lam, rho)


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
