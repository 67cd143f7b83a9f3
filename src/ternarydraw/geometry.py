"""Grid drawings, rigid transforms, and extent measurement relative to the root.

Coordinate convention: x grows rightward, y grows DOWNWARD (SVG-style), so
"below the root" means larger y. Edges are implicit: each non-root node is
joined to its parent by an axis-parallel straight-line segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

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


COORD_LIMIT = 2 ** 62  # |c| below this keeps every difference, width and sum exact in int64


def coordinates(d: GridDrawing) -> np.ndarray:
    """The positions as an (n, 2) int64 array; float64 if some coordinate is
    not integral (such a drawing is off the grid). ValueError for a
    coordinate with |c| >= COORD_LIMIT, or one that is not a finite number."""
    P = np.array(d.pos)
    if P.shape != (d.tree.n, 2):
        raise ValueError("every position must be an (x, y) pair")
    if P.dtype.kind not in "biu":
        P = P.astype(np.float64)
    if not (np.all(P < COORD_LIMIT) and np.all(P > -COORD_LIMIT)):
        raise ValueError("coordinates must be numbers with |c| < 2**62")
    if P.dtype.kind == "f" and not np.all(P == np.floor(P)):
        return P
    return P.astype(np.int64, copy=False)


def edge_arrays(t: TernaryTree) -> tuple[np.ndarray, np.ndarray]:
    """(parent, child) node ids, one entry per edge, ordered by parent id and
    then by child slot."""
    counts = np.fromiter(map(len, t.children), np.int64, t.n)
    child = np.fromiter(chain.from_iterable(t.children), np.int64, t.n - 1)
    return np.repeat(np.arange(t.n), counts), child


def split_segments(P: np.ndarray, parent: np.ndarray,
                   child: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """One pass over the edges: the horizontal runs (y, x1, x2) and the
    vertical runs (x, y1, y2) as (m, 3) arrays with lo < hi, and whether every
    edge is axis-parallel with positive length. Diagonal and zero-length edges
    join neither array; they add only their endpoints, which are nodes."""
    a, b = P[parent], P[child]
    dx, dy = a[:, 0] != b[:, 0], a[:, 1] != b[:, 1]
    h, v = dx & ~dy, dy & ~dx

    def runs(mask: np.ndarray, line: int) -> np.ndarray:
        ends = 1 - line
        return np.stack([a[mask, line], np.minimum(a[mask, ends], b[mask, ends]),
                         np.maximum(a[mask, ends], b[mask, ends])], axis=1)

    return runs(h, 1), runs(v, 0), bool(np.all(dx != dy))


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


def _union_counts(lo: np.ndarray, hi: np.ndarray, pivot) -> tuple:
    """Integer points covered by the union of the closed intervals [lo, hi]:
    total, strictly below pivot, strictly above pivot."""
    order = np.argsort(lo)
    lo, reach = lo[order], np.maximum.accumulate(hi[order])
    first = np.empty(len(lo), bool)
    first[0] = True
    first[1:] = lo[1:] > reach[:-1] + 1
    starts, ends = lo[first], reach[np.append(first[1:], True)]
    total = (ends - starts + 1).sum()
    below = np.maximum(np.minimum(ends, pivot - 1) - starts + 1, 0).sum()
    above = np.maximum(ends - np.maximum(starts, pivot + 1) + 1, 0).sum()
    return total.item(), below.item(), above.item()


def extents(d: GridDrawing) -> Extents:
    """Exact grid-line counts; a column/row counts if it meets a node or any
    point of an edge segment. ValueError off the grid (a coordinate that is
    not integral), where no grid lines are counted."""
    P = coordinates(d)
    if P.dtype.kind == "f":
        raise ValueError("an off-grid drawing has no grid-line counts")
    hs, vs, _ = split_segments(P, *edge_arrays(d.tree))
    return segment_extents(P, d.tree.root, hs, vs)


def segment_extents(P: np.ndarray, root: int, hs: np.ndarray, vs: np.ndarray) -> Extents:
    """extents(d) from coordinates(d) and the runs split_segments returned."""
    rx, ry = P[root]
    w, lw, rw = _union_counts(np.concatenate([P[:, 0], hs[:, 1]]),
                              np.concatenate([P[:, 0], hs[:, 2]]), rx)
    h, th, bh = _union_counts(np.concatenate([P[:, 1], vs[:, 1]]),
                              np.concatenate([P[:, 1], vs[:, 2]]), ry)
    return Extents(w, h, lw, rw, th, bh)


def drawing_to_json(d: GridDrawing) -> dict:
    return {"tree": tree_to_json(d.tree), "pos": [[x, y] for x, y in d.pos]}


# json.dumps(..., indent=2) layout of one child list, by its length, and of
# one position row.
_CHILD_TEMPLATES = ("      []",) + tuple(
    "      [\n" + ",\n".join(["        %d"] * k) + "\n      ]" for k in (1, 2, 3))
_ROW_TEMPLATE = "    [\n      %d,\n      %d\n    ]"


def drawing_json(d: GridDrawing) -> str:
    """Exactly ``json.dumps(drawing_to_json(d), indent=2)`` for a drawing with
    integer coordinates, from one format string per section instead of the
    pure-Python encoder. ValueError unless ``coordinates(d)`` is int64, so a
    fractional coordinate is never rounded."""
    P = coordinates(d)
    if P.dtype != np.int64:
        raise ValueError("only integer coordinates can be written")
    t = d.tree
    children = ",\n".join([_CHILD_TEMPLATES[len(k)] for k in t.children])
    rows = ",\n".join([_ROW_TEMPLATE] * t.n)
    return "".join((
        '{\n  "tree": {\n    "n": %d,\n    "root": %d,\n    "children": [\n' % (t.n, t.root),
        children % tuple(chain.from_iterable(t.children)),
        '\n    ]\n  },\n  "pos": [\n',
        rows % tuple(P.ravel().tolist()),
        "\n  ]\n}"))


def drawing_from_json(obj: dict) -> GridDrawing:
    """Parse {"tree", "pos"}; every coordinate must be a JSON integer with
    |c| < 2**62."""
    if not isinstance(obj, dict):
        raise ValueError("a drawing must be a JSON object")
    tree = tree_from_json(obj["tree"])
    pos = tuple((x, y) for x, y in obj["pos"])
    flat = [c for p in pos for c in p]
    require_json_ints(flat, "coordinates")
    if flat and not (-COORD_LIMIT < min(flat) and max(flat) < COORD_LIMIT):
        raise ValueError("coordinates must satisfy |c| < 2**62")
    return GridDrawing(tree, pos)
