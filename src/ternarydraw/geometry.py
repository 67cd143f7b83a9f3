"""Grid drawings, their JSON form, and extent measurement relative to the root.

Coordinate convention: x grows rightward, y grows DOWNWARD (SVG-style), so
"below the root" means larger y. Edges are implicit: each non-root node is
joined to its parent by an axis-parallel straight-line segment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, NamedTuple, Optional

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
    (n, 2) int64 array. ValueError unless the positions are integers, as
    numpy types them (a float, bool or object array is refused, even with
    integral values, and so is a bool among positions given as sequences),
    with |c| < COORD_LIMIT."""

    tree: TernaryTree
    pos: np.ndarray

    def __post_init__(self) -> None:
        P = np.array(self.pos)
        if P.shape != (self.tree.n, 2):
            raise ValueError("one (x, y) position per node required")
        bools = not isinstance(self.pos, np.ndarray) and not {bool, np.bool_}.isdisjoint(
            map(type, chain.from_iterable(self.pos)))  # numpy types (True, 0) as int64
        if bools or P.dtype.kind not in "iu" or not (np.all(P < COORD_LIMIT) and np.all(P > -COORD_LIMIT)):
            raise ValueError("coordinates must be integers with |c| < 2**62")
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


def bbox(d: GridDrawing) -> tuple[int, int, int, int]:
    """(xmin, xmax, ymin, ymax) of the whole drawing. Every edge joins two
    nodes, so the box over the node positions is exact."""
    (xmin, ymin), (xmax, ymax) = d.pos.min(axis=0).tolist(), d.pos.max(axis=0).tolist()
    return xmin, xmax, ymin, ymax


class NodeRanks(NamedTuple):
    """Each node's dense rank among the distinct x and y values, those values
    in increasing order, its dense rank in (y, x) and in (x, y) order (its
    place there when no two nodes share a point), and whether the drawing
    is on the grid: no two nodes at one point."""

    rx: np.ndarray
    ry: np.ndarray
    ux: np.ndarray
    uy: np.ndarray
    place_yx: np.ndarray
    place_xy: np.ndarray
    on_grid: bool


def node_ranks(P: np.ndarray) -> NodeRanks:
    """One sort per axis gives the ranks; one sort of the int64 key
    ry * len(ux) + rx (resp. rx * len(uy) + ry), below n**2, gives each
    order. Ranks keep order and equality, so every check can read them in
    place of the coordinates."""
    (ux, rx), (uy, ry) = (np.unique(c, return_inverse=True) for c in P.T)
    points, place_yx = np.unique(ry * len(ux) + rx, return_inverse=True)
    place_xy = np.unique(rx * len(uy) + ry, return_inverse=True)[1]
    return NodeRanks(rx, ry, ux, uy, place_yx, place_xy, len(points) == len(P))


def rank_runs(r: NodeRanks, parent: np.ndarray, child: np.ndarray) -> tuple:
    """The (a, b) node ids of the horizontal and of the vertical edges, of
    positive length along exactly one axis, and their runs in rank space:
    (ry, rx1, rx2) and (rx, ry1, ry2) as (m, 3) arrays with lo < hi.
    Diagonal and zero-length edges are in neither; they add only their
    endpoints, which are nodes."""
    dx, dy = r.rx[parent] != r.rx[child], r.ry[parent] != r.ry[child]
    h, v = (parent[dx & ~dy], child[dx & ~dy]), (parent[dy & ~dx], child[dy & ~dx])
    return h, v, *(np.stack([line[a], np.minimum(at[a], at[b]), np.maximum(at[a], at[b])], axis=1)
                   for line, at, (a, b) in ((r.ry, r.rx, h), (r.rx, r.ry, v)))


def rank_extents(r: NodeRanks, root: int, hs: np.ndarray, vs: np.ndarray) -> Extents:
    """extents from the node ranks and rank_runs' runs: the distinct node x
    values plus each gap between two consecutive ones that a horizontal run
    spans (it ends at nodes, so it spans a gap whole or not at all), found
    by a bincount and a cumsum over the runs' rank ranges; no sort."""
    def counts(values: np.ndarray, lo: np.ndarray, hi: np.ndarray, pivot: int) -> tuple[int, int, int]:
        k = len(values)
        spanned = np.cumsum(np.bincount(lo, minlength=k) - np.bincount(hi, minlength=k))[:-1] > 0
        gap = np.where(spanned, np.diff(values) - 1, 0)  # gap i lies between ranks i and i + 1
        below, above = gap[:pivot].sum().item(), gap[pivot:].sum().item()
        return k + below + above, pivot + below, k - 1 - pivot + above

    w, lw, rw = counts(r.ux, hs[:, 1], hs[:, 2], r.rx[root].item())
    h, th, bh = counts(r.uy, vs[:, 1], vs[:, 2], r.ry[root].item())
    return Extents(w, h, lw, rw, th, bh)


def extents(d: GridDrawing) -> Extents:
    """Exact grid-line counts; a column/row counts if it meets a node or any
    point of an edge segment."""
    r = node_ranks(d.pos)
    return rank_extents(r, d.tree.root, *rank_runs(r, *edge_arrays(d.tree))[2:])


def drawing_to_json(d: GridDrawing) -> dict:
    return {"tree": tree_to_json(d.tree), "pos": d.pos.tolist()}


# json.dumps(..., indent=2) layout of a drawing: its head, the children, the
# text between them and the positions, its tail; one child list, by its
# length, and one position row.
_HEAD = '{\n  "tree": {\n    "n": %d,\n    "root": %d,\n    "children": [\n'
_MIDDLE = '\n    ]\n  },\n  "pos": [\n'
_TAIL = "\n  ]\n}"
_CHILD_TEMPLATES = ("      []",) + tuple(
    "      [\n" + ",\n".join(["        %d"] * k) + "\n      ]" for k in (1, 2, 3))
_ROW_TEMPLATE = "    [\n      %d,\n      %d\n    ]"
_BLOCK = 1 << 16  # nodes formatted per % operation, bounding the Python ints alive at once


def drawing_json_blocks(d: GridDrawing) -> Iterator[str]:
    """The pieces of ``drawing_json(d)`` in order, the children and the
    positions of at most _BLOCK nodes each, formatted as they are asked for."""
    t, P = d.tree, d.pos
    counts = (t.table >= 0).sum(axis=1)
    ids, starts = t.table[t.table >= 0], np.append(0, np.cumsum(counts))[::_BLOCK].tolist()
    yield _HEAD % (t.n, t.root)
    for i, a, b in zip(range(0, t.n, _BLOCK), starts, starts[1:] + [len(ids)]):
        if i:
            yield ",\n"
        lists = [_CHILD_TEMPLATES[k] for k in counts[i:i + _BLOCK].tolist()]
        yield ",\n".join(lists) % tuple(ids[a:b].tolist())
    yield _MIDDLE
    for i in range(0, t.n, _BLOCK):
        if i:
            yield ",\n"
        rows = P[i:i + _BLOCK]
        yield ",\n".join([_ROW_TEMPLATE] * len(rows)) % tuple(rows.ravel().tolist())
    yield _TAIL


def drawing_json(d: GridDrawing) -> str:
    """Exactly ``json.dumps(drawing_to_json(d), indent=2)``, from one format
    string per block of nodes instead of the pure-Python encoder: the join
    of drawing_json_blocks(d)."""
    return "".join(drawing_json_blocks(d))


_HEAD_RE = re.compile(re.escape(_HEAD.encode()).replace(rb"%d", rb"(\d{1,19})"))
_CHUNK = 1 << 18  # bytes scanned per numpy pass, bounding the per-digit arrays
_POW10 = 10 ** np.arange(19, dtype=np.int64)


def read_canonical(data: bytes) -> Optional[GridDrawing]:
    """The drawing d with ``drawing_json(d)`` equal to ``data``, with or
    without one trailing newline; None if there is none. The numbers are
    read with numpy byte masks, the drawing is built by the validating
    constructors, and it is accepted only if its drawing_json_blocks equal
    the bytes of ``data`` one by one. So an accepted drawing is exactly what
    ``drawing_from_json(json.loads(data))`` builds, and any other layout,
    valid or not, gets None."""
    head = _HEAD_RE.match(data)
    middle = data.find(_MIDDLE.encode(), head.end()) if head else -1
    if middle < 0:
        return None
    n, root = int(head[1]), int(head[2])
    table = _child_table(data, head.end(), middle, n)
    pos = _positions(data, middle + len(_MIDDLE), len(data), n)
    if table is None or pos is None:
        return None
    try:
        d = GridDrawing(TernaryTree(table, root), pos)
    except ValueError:  # TreeError included
        return None
    at = 0
    for block in map(str.encode, drawing_json_blocks(d)):
        if not data.startswith(block, at):
            return None
        at += len(block)
    return d if data[at:at + 2] in (b"", b"\n") else None


def _child_table(data: bytes, lo: int, hi: int, n: int) -> Optional[np.ndarray]:
    """The (n, 3) child table, -1 in the empty slots, of the n lists in
    data[lo:hi]: each id belongs to the list opened last before it. None
    unless there are n lists of at most 3 ids each. Like _positions, it
    returns only what it keeps, so the scan's offsets die with its call."""
    scanned = _scan(data, lo, hi)
    if scanned is None or len(scanned[2]) != n:
        return None
    starts, ids, opens = scanned
    node = np.searchsorted(opens, starts) - 1
    counts = np.bincount(node[node >= 0], minlength=n)
    if len(ids) and (node[0] < 0 or counts.max() > 3):
        return None
    table = np.full((n, 3), -1)
    table[np.arange(3) < counts[:, None]] = ids
    return table


def _positions(data: bytes, lo: int, hi: int, n: int) -> Optional[np.ndarray]:
    """The n (x, y) rows of the numbers in data[lo:hi]; None unless there
    are 2n numbers."""
    scanned = _scan(data, lo, hi)
    if scanned is None or len(scanned[1]) != 2 * n:
        return None
    return scanned[1].reshape(n, 2)


def _scan(data: bytes, lo: int, hi: int) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The offsets of the digit runs in data[lo:hi] (lo >= 1), their values
    (negated after a '-') and the offsets of the '[' bytes, read in chunks
    that end at a newline. None if a run has more than 19 digits (beyond
    int64) or a chunk would hold no newline (no line of drawing_json is that
    long)."""
    buf = np.frombuffer(data, np.uint8)
    starts, values, opens = [], [], []
    while lo < hi:
        cut = hi if hi - lo <= _CHUNK else data.rfind(b"\n", lo, lo + _CHUNK) + 1
        if cut <= lo:
            return None
        chunk = buf[lo:cut]
        digit = chunk - ord("0")  # wraps below "0"
        is_digit = digit < 10
        s, e = np.flatnonzero(np.diff(is_digit, prepend=False, append=False)).reshape(-1, 2).T
        if len(s):
            length = e - s
            if length.max() > 19:
                return None
            first = np.cumsum(length) - length  # each run's first digit among the chunk's digits
            digit = digit[is_digit]
            place = np.repeat(first + length - 1, length) - np.arange(len(digit))
            v = np.add.reduceat(digit * _POW10[place], first)
            values.append(np.where(buf[lo + s - 1] == ord("-"), -v, v))
            starts.append(lo + s)
        opens.append(lo + np.flatnonzero(chunk == ord("[")))
        lo = cut
    return tuple(np.concatenate(a, dtype=np.int64) if a else np.zeros(0, np.int64)
                 for a in (starts, values, opens))


def drawing_from_json(obj: dict) -> GridDrawing:
    """Parse {"tree", "pos"}; every coordinate must be a JSON integer with
    |c| < 2**62."""
    if not isinstance(obj, dict):
        raise ValueError("a drawing must be a JSON object")
    tree = tree_from_json(obj["tree"])
    pos = obj["pos"]
    if not (type(pos) is list and set(map(type, pos)) <= {list} and set(map(len, pos)) <= {2}):
        raise ValueError("pos must be a list of [x, y] pairs")
    require_json_ints(chain.from_iterable(pos), "coordinates")  # before numpy coerces them
    try:
        P = np.fromiter(chain.from_iterable(pos), np.int64, 2 * len(pos))
    except OverflowError:  # |c| >= 2**63
        raise ValueError("coordinates must be numbers with |c| < 2**62") from None
    return GridDrawing(tree, P.reshape(-1, 2))
