"""Grid drawings, their JSON form, and extent measurement relative to the root.

Coordinate convention: x grows rightward, y grows DOWNWARD (SVG-style), so
"below the root" means larger y. Edges are implicit: each non-root node is
joined to its parent by an axis-parallel straight-line segment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Optional

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
    then by child slot: the filled entries of the raveled table in order."""
    table = t.table.ravel()
    at = np.flatnonzero(table >= 0)
    return at // 3, table[at]


def bbox(d: GridDrawing) -> tuple[int, int, int, int]:
    """(xmin, xmax, ymin, ymax) of the whole drawing. Every edge joins two
    nodes, so the box over the node positions is exact. One 1-D reduction
    per column and bound: an axis-0 reduction of the (n, 2) array runs a
    two-wide inner loop per row."""
    x, y = d.pos.T
    return int(x.min()), int(x.max()), int(y.min()), int(y.max())


def extents(d: GridDrawing) -> Extents:
    """Exact grid-line counts, read off bbox(d) and the root's position. A
    tree drawing is connected, so every column between its leftmost and
    rightmost point meets it, diagonal edges included, and so does every
    row."""
    xmin, xmax, ymin, ymax = bbox(d)
    x, y = d.root_pos()
    return Extents(xmax - xmin + 1, ymax - ymin + 1, x - xmin, xmax - x, y - ymin, ymax - y)


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


_HEAD_RE = re.compile(re.escape(_HEAD.encode()).replace(rb"%d", rb"(0|[1-9][0-9]{0,18})"))


def read_canonical(data: bytes) -> Optional[GridDrawing]:
    """The drawing d with ``drawing_json(d)`` equal to ``data``, with or
    without one trailing newline; None if there is none. The head and the
    tail are compared whole; _lists checks the children and the positions
    line by line as it reads their numbers, and the drawing is built by the
    validating constructors. So an accepted drawing is exactly what
    ``drawing_from_json(json.loads(data))`` builds, and any other layout,
    valid or not, gets None."""
    head = _HEAD_RE.match(data)
    if head is None:
        return None
    n, root, lo = int(head[1]), int(head[2]), head.end()
    middle, hi = data.find(_MIDDLE.encode(), lo), len(data) - data.endswith(b"\n") - len(_TAIL)
    if middle < 0 or hi < middle + len(_MIDDLE) or not data.startswith(_TAIL.encode(), hi):
        return None
    buf = np.frombuffer(data, np.uint8)
    children = _lists(buf, lo, middle, 6, n, signed=False)
    rows = _lists(buf, middle + len(_MIDDLE), hi, 4, n, signed=True)
    if children is None or rows is None or np.any(rows[0] != 2) or children[0].max() > 3:
        return None
    table = np.full((n, 3), -1)
    table[np.arange(3) < children[0][:, None]] = children[1]
    try:
        return GridDrawing(TernaryTree(table, root), rows[1].reshape(n, 2))
    except ValueError:  # TreeError included
        return None


def _lists(buf: np.ndarray, lo: int, hi: int, indent: int, n: int,
           signed: bool) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The item count of each list in buf[lo:hi] and the items in order, if
    it holds n lists of integers as drawing_json lays them out at ``indent``
    spaces: "[]", or "[" then one item a line two spaces deeper then "]",
    lists and items joined by a comma and a newline. None otherwise. Each
    line is told by its width and its bytes after the indent, and each byte
    checked outside the indents is not a space, so one count of the spaces
    checks every indent. Line j is buf[bounds[j] + 1:bounds[j + 1]]; the
    per-line arrays die before the numbers are read."""
    bounds = np.flatnonzero(buf[lo:hi] == ord("\n"))
    bounds += lo
    bounds = np.concatenate(([lo - 1], bounds, [hi]))
    comma, width = buf[bounds[1:] - 1] == ord(","), np.diff(bounds)
    width -= 1
    width -= comma  # the width without the comma
    key, after = buf[indent + 1:][bounds[:-1]], buf[indent + 2:][bounds[:-1]]
    opener = (key == ord("[")) & (width == indent + 1) & ~comma
    closer = (key == ord("]")) & (width == indent + 1)
    empty = (key == ord("[")) & (after == ord("]")) & (width == indent + 2)
    first, last, item = opener | empty, empty | closer, ~(opener | empty | closer)
    lists = np.flatnonzero(first)
    if (len(lists) != n or not (first[0] and last[-1]) or np.any(first[1:] != last[:-1])
            or np.any(opener[:-1] & closer[1:]) or comma[-1]
            or np.any(comma[:-1] != ~(opener[:-1] | closer[1:]))
            or np.count_nonzero(buf[lo:hi] == ord(" ")) != indent * len(width) + 2 * item.sum()):
        return None
    counts = np.diff(np.append(lists, len(width))) - 1 - opener[lists]
    items = np.flatnonzero(item)  # the item lines, selected once
    del key, after, opener, closer, empty, first, last, item  # before the per-item arrays
    ends, sizes = bounds[1:].take(items), width.take(items)
    ends -= comma.take(items)
    sizes -= indent + 2
    del bounds, width, comma, items
    values = _integers(buf, ends, sizes, signed)
    return None if values is None else (counts, values)


def _integers(buf: np.ndarray, ends: np.ndarray, sizes: np.ndarray, signed: bool) -> Optional[np.ndarray]:
    """The integer written in each buf[end - size:end] (end >= 19; ends and
    sizes are used as scratch): 1 to 19 decimal digits, after a "-" if
    signed, with no leading zero and no -0. None if one is not. The digits
    are read a column at a time, each number right-aligned in a window as
    wide as the widest; 19 digits past 2**63 - 1 wrap in int64, and no
    drawing holds such a number."""
    neg = signed & (buf.take(ends - sizes, mode="clip") == ord("-"))
    sizes -= neg
    if len(sizes) and (sizes.min() < 1 or sizes.max() > 19
                       or np.any((buf[ends - sizes] == ord("0")) & ((sizes > 1) | neg))):
        return None
    w = sizes.max(initial=0)
    ends -= w  # now each window's start
    outside, value = (w - sizes).astype(np.uint8), np.zeros(len(sizes), np.int64)
    for j in range(w):
        digit = buf[j:][ends] - ord("0")  # wraps below "0"
        digit *= outside <= j
        if digit.max(initial=0) > 9:
            return None
        value *= 10
        value += digit
    return np.negative(value, out=value, where=neg)


def drawing_from_json(obj: dict) -> GridDrawing:
    """Parse {"tree", "pos"}; every coordinate must be a JSON integer with
    |c| < 2**62."""
    if not isinstance(obj, dict) or not {"tree", "pos"} <= obj.keys():
        raise ValueError('a drawing must be a JSON object with "tree" and "pos"')
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
