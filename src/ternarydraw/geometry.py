"""Grid drawings, rigid transforms, and extent measurement relative to the root.

Coordinate convention: x grows rightward, y grows DOWNWARD (SVG-style), so
"below the root" means larger y. Edges are implicit: each non-root node is
joined to its parent by an axis-parallel straight-line segment.
"""

from __future__ import annotations

from dataclasses import dataclass

from .tree import TernaryTree, require_json_ints, tree_from_json, tree_to_json


@dataclass(frozen=True)
class Extents:
    """Grid-line counts of a drawing, relative to its root.

    width/height count grid columns/rows intersecting the drawing;
    left_width counts the intersecting columns strictly left of the root,
    right_width those strictly right, and analogously top/bottom height.
    """

    width: int
    height: int
    left_width: int
    right_width: int
    top_height: int
    bottom_height: int

    @property
    def area(self) -> int:
        return self.width * self.height


@dataclass(frozen=True)
class GridDrawing:
    """Assignment of integer grid points to the nodes of a tree."""

    tree: TernaryTree
    pos: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if len(self.pos) != self.tree.n:
            raise ValueError("one position per node required")

    def root_pos(self) -> tuple[int, int]:
        return self.pos[self.tree.root]


def edge_segments(d: GridDrawing) -> list[tuple[int, int, int, int]]:
    """(x1, y1, x2, y2) per tree edge, endpoint order following parent->child."""
    segs = []
    pos = d.pos
    for v, kids in enumerate(d.tree.children):
        x1, y1 = pos[v]
        for c in kids:
            x2, y2 = pos[c]
            segs.append((x1, y1, x2, y2))
    return segs


Run = tuple[int, int, int]  # (line, lo, hi) with lo < hi: a row y or a column x


def split_segments(d: GridDrawing) -> tuple[list[Run], list[Run], bool]:
    """One pass over the tree edges: the horizontal runs (y, x1, x2), the
    vertical runs (x, y1, y2), and whether every edge is axis-parallel with
    positive length. Diagonal and zero-length edges join neither list; they
    add only their endpoints, which are nodes."""
    hs, vs = [], []
    orthogonal = True
    pos = d.pos
    for v, kids in enumerate(d.tree.children):
        x1, y1 = pos[v]
        for c in kids:
            x2, y2 = pos[c]
            if y1 == y2 and x1 != x2:
                hs.append((y1, x1, x2) if x1 < x2 else (y1, x2, x1))
            elif x1 == x2 and y1 != y2:
                vs.append((x1, y1, y2) if y1 < y2 else (x1, y2, y1))
            else:
                orthogonal = False
    return hs, vs, orthogonal


def bbox(d: GridDrawing) -> tuple[int, int, int, int]:
    """(xmin, xmax, ymin, ymax) of the whole drawing. Every edge joins two
    nodes, so the box over the node positions is exact."""
    xs = [x for x, _ in d.pos]
    ys = [y for _, y in d.pos]
    return min(xs), max(xs), min(ys), max(ys)


def rotate(d: GridDrawing, quarter_turns_cw: int) -> GridDrawing:
    """Rotate about the root's position by 90° clockwise steps (screen sense,
    y-down). The root keeps its position."""
    if quarter_turns_cw not in (1, 2, 3):
        raise ValueError("quarter_turns_cw must be 1, 2, or 3")
    px, py = d.root_pos()
    out = []
    for x, y in d.pos:
        dx, dy = x - px, y - py
        for _ in range(quarter_turns_cw):
            dx, dy = -dy, dx
        out.append((px + dx, py + dy))
    return GridDrawing(d.tree, tuple(out))


def _covered_counts(intervals: list[tuple[int, int]], pivot: int) -> tuple[int, int, int]:
    """Integer points covered by the union of closed intervals: total, strictly
    below pivot, strictly above pivot."""
    intervals.sort()
    total = below = above = 0
    cs, ce = intervals[0]
    merged = []
    for a, b in intervals[1:]:
        if a <= ce + 1:
            ce = max(ce, b)
        else:
            merged.append((cs, ce))
            cs, ce = a, b
    merged.append((cs, ce))
    for a, b in merged:
        total += b - a + 1
        below += max(0, min(b, pivot - 1) - a + 1)
        above += max(0, b - max(a, pivot + 1) + 1)
    return total, below, above


def extents(d: GridDrawing) -> Extents:
    """Exact grid-line counts; a column/row counts if it meets a node or any
    point of an edge segment."""
    hs, vs, _ = split_segments(d)
    return segment_extents(d, hs, vs)


def segment_extents(d: GridDrawing, hs: list[Run], vs: list[Run]) -> Extents:
    """extents(d) from the runs split_segments(d) returned."""
    rx, ry = d.root_pos()
    cols = [(x, x) for x, _ in d.pos]
    cols += [(lo, hi) for _, lo, hi in hs]
    rows = [(y, y) for _, y in d.pos]
    rows += [(lo, hi) for _, lo, hi in vs]
    w, lw, rw = _covered_counts(cols, rx)
    h, th, bh = _covered_counts(rows, ry)
    return Extents(w, h, lw, rw, th, bh)


def drawing_to_json(d: GridDrawing) -> dict:
    return {"tree": tree_to_json(d.tree), "pos": [[x, y] for x, y in d.pos]}


def drawing_from_json(obj: dict) -> GridDrawing:
    """Parse {"tree", "pos"}; every coordinate must be a JSON integer."""
    if not isinstance(obj, dict):
        raise ValueError("a drawing must be a JSON object")
    tree = tree_from_json(obj["tree"])
    pos = tuple((x, y) for x, y in obj["pos"])
    require_json_ints((c for p in pos for c in p), "coordinates")
    return GridDrawing(tree, pos)
