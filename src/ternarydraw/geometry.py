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


COORD_LIMIT = 2 ** 62  # |c| below this keeps every difference, width and sum exact in int64


@dataclass(frozen=True, eq=False)
class GridDrawing:
    """Assignment of grid points to the nodes of a tree: row v of ``pos`` is
    node v's (x, y). ``pos`` is a read-only copy of the positions given, as an
    (n, 2) int64 array; float64 if some coordinate is not integral (such a
    drawing is off the grid). ValueError for a coordinate with
    |c| >= COORD_LIMIT, or one that is not a finite number."""

    tree: TernaryTree
    pos: np.ndarray

    def __post_init__(self) -> None:
        P = np.array(self.pos)
        if P.shape != (self.tree.n, 2):
            raise ValueError("one (x, y) position per node required")
        if not (np.all(P < COORD_LIMIT) and np.all(P > -COORD_LIMIT)):
            raise ValueError("coordinates must be numbers with |c| < 2**62")
        if P.dtype.kind not in "biu":
            P = P.astype(np.float64)
        if P.dtype.kind != "f" or np.all(P == np.floor(P)):
            P = P.astype(np.int64, copy=False)
        P.setflags(write=False)
        object.__setattr__(self, "pos", P)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GridDrawing):
            return NotImplemented
        return self.tree == other.tree and np.array_equal(self.pos, other.pos)

    def root_pos(self) -> tuple[int, int]:
        return tuple(self.pos[self.tree.root].tolist())


def edge_segments(d: GridDrawing) -> np.ndarray:
    """(x1, y1, x2, y2) per tree edge as an (n - 1, 4) array, endpoint order
    following parent->child, edges ordered as by edge_arrays."""
    parent, child = edge_arrays(d.tree)
    return np.concatenate([d.pos[parent], d.pos[child]], axis=1)


def edge_arrays(t: TernaryTree) -> tuple[np.ndarray, np.ndarray]:
    """(parent, child) node ids, one entry per edge, ordered by parent id and
    then by child slot."""
    parent, slot = np.nonzero(t.table >= 0)
    return parent, t.table[parent, slot]


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
    (xmin, ymin), (xmax, ymax) = d.pos.min(axis=0).tolist(), d.pos.max(axis=0).tolist()
    return xmin, xmax, ymin, ymax


def rotate(d: GridDrawing, quarter_turns_cw: int) -> GridDrawing:
    """Rotate about the root's position by 90° clockwise steps (screen sense,
    y-down). The root keeps its position."""
    if quarter_turns_cw not in (1, 2, 3):
        raise ValueError("quarter_turns_cw must be 1, 2, or 3")
    root = d.pos[d.tree.root]
    D = d.pos - root
    for _ in range(quarter_turns_cw):
        D = np.stack([-D[:, 1], D[:, 0]], axis=1)
    return GridDrawing(d.tree, D + root)


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
    P = d.pos
    if P.dtype.kind == "f":
        raise ValueError("an off-grid drawing has no grid-line counts")
    hs, vs, _ = split_segments(P, *edge_arrays(d.tree))
    return segment_extents(P, d.tree.root, hs, vs)


def segment_extents(P: np.ndarray, root: int, hs: np.ndarray, vs: np.ndarray) -> Extents:
    """extents(d) from d.pos and the runs split_segments returned."""
    rx, ry = P[root]
    w, lw, rw = _union_counts(np.concatenate([P[:, 0], hs[:, 1]]),
                              np.concatenate([P[:, 0], hs[:, 2]]), rx)
    h, th, bh = _union_counts(np.concatenate([P[:, 1], vs[:, 1]]),
                              np.concatenate([P[:, 1], vs[:, 2]]), ry)
    return Extents(w, h, lw, rw, th, bh)


def drawing_to_json(d: GridDrawing) -> dict:
    return {"tree": tree_to_json(d.tree), "pos": d.pos.tolist()}


# json.dumps(..., indent=2) layout of one child list, by its length, and of
# one position row.
_CHILD_TEMPLATES = ("      []",) + tuple(
    "      [\n" + ",\n".join(["        %d"] * k) + "\n      ]" for k in (1, 2, 3))
_ROW_TEMPLATE = "    [\n      %d,\n      %d\n    ]"
_BLOCK = 1 << 16  # nodes formatted per % operation, bounding the Python ints alive at once


def drawing_json(d: GridDrawing) -> str:
    """Exactly ``json.dumps(drawing_to_json(d), indent=2)`` for a drawing with
    integer coordinates, from one format string per block of nodes instead
    of the pure-Python encoder. ValueError unless ``d.pos`` is int64, so a
    fractional coordinate is never rounded."""
    P = d.pos
    if P.dtype != np.int64:
        raise ValueError("only integer coordinates can be written")
    t = d.tree
    counts = (t.table >= 0).sum(axis=1)
    ids, starts = t.table[t.table >= 0], np.append(0, np.cumsum(counts))[::_BLOCK].tolist()
    children = ['{\n  "tree": {\n    "n": %d,\n    "root": %d,\n    "children": [\n' % (t.n, t.root)]
    rows = ['\n    ]\n  },\n  "pos": [\n']
    for i, a, b in zip(range(0, t.n, _BLOCK), starts, starts[1:] + [len(ids)]):
        block = counts[i:i + _BLOCK].tolist()
        children += ",\n".join([_CHILD_TEMPLATES[k] for k in block]) % tuple(ids[a:b].tolist()), ",\n"
        rows += ",\n".join([_ROW_TEMPLATE] * len(block)) % tuple(P[i:i + _BLOCK].ravel().tolist()), ",\n"
    rows[-1] = "\n  ]\n}"
    return "".join(children[:-1] + rows)  # one join: no section is copied twice


def drawing_from_json(obj: dict) -> GridDrawing:
    """Parse {"tree", "pos"}; every coordinate must be a JSON integer with
    |c| < 2**62."""
    if not isinstance(obj, dict):
        raise ValueError("a drawing must be a JSON object")
    tree = tree_from_json(obj["tree"])
    pos = obj["pos"]
    require_json_ints(chain.from_iterable(pos), "coordinates")  # before numpy coerces them
    return GridDrawing(tree, pos)
