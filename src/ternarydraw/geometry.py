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

from .tree import TernaryTree, child_table, tree_from_json, tree_to_json


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
        try:  # np.array raises ValueError on ragged rows
            if (P := np.array(self.pos)).shape != (self.tree.n, 2):
                raise ValueError
        except ValueError:
            raise ValueError("one (x, y) position per node required") from None
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
_BLOCK = 1 << 13  # nodes formatted per % operation, bounding the Python ints alive at once


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


# The reader's patterns: the templates' tokens, any JSON whitespace around them.
_WHITESPACE, _SPACE = b" \t\n\r", rb"[ \t\n\r]*"
_HEAD_RE, _MIDDLE_RE, _TAIL_RE = (re.compile(lead + _SPACE.join(
    rb"(0|[1-9][0-9]{0,18})" if token == "%d" else re.escape(token.encode())
    for token in re.findall(r'"\w+"|%d|\S', template)) + end)
    for template, lead, end in ((_HEAD, _SPACE, b""), (_MIDDLE, b"", b""), (_TAIL, b"", _SPACE + rb"\Z")))
_SCAN = 1 << 20  # bytes per pass of the count of number runs, bounding its scratch


def read_drawing_json(data: bytes) -> Optional[GridDrawing]:
    """What ``drawing_from_json(json.loads(data))`` builds or raises, if data
    is drawing_json's document with any JSON whitespace between its tokens;
    None otherwise. The head, middle and tail are matched token by token, so
    no key hides whitespace; _lists reads the lists with their whitespace
    deleted, and as many runs of "-" and digit bytes as numbers read show
    that no number held whitespace ("1 2"). The constructors check the rest."""
    head = _HEAD_RE.match(data)
    at = data.find(b'"', head.end()) if head else -1  # the lists hold no '"': this is "pos"
    middle = _MIDDLE_RE.match(data, max(data.rfind(b"]", 0, at), 0)) if at > 0 else None
    tail = _TAIL_RE.match(data, max(data.rfind(b"]"), 0))
    if middle is None or tail is None:
        return None
    buf, runs = np.frombuffer(data, np.uint8), 0
    for a in range(1, len(data), _SCAN):  # data[0] is "{" or whitespace
        num = buf[a - 1:a + _SCAN] - ord("-") <= ord("9") - ord("-")  # wraps below "-"
        runs += np.count_nonzero(num[1:] > num[:-1])
    n = int(head[1])
    children = _lists(data[head.end():middle.start()].translate(None, _WHITESPACE), n)
    rows = _lists(data[middle.end():tail.start()].translate(None, _WHITESPACE), n)
    if children is None or rows is None or runs != 2 + len(children[1]) + len(rows[1]):
        return None
    tree = TernaryTree(child_table(*children), int(head[2]))
    return GridDrawing(tree, rows[1].reshape(n, 2) if np.all(rows[0] == 2) else rows[1])


def _lists(text: bytes, n: int) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The item count of each list in text and the items in order, if it is
    n lists of integers joined by commas, without whitespace; None
    otherwise. The brackets alternate, "]," is followed by "[", and any
    other two adjacent separators enclose an item, but those of "[]". An
    item is 1 to 19 decimal digits, maybe after a "-", with no leading zero
    ("-0" is 0, as json reads it). The digits are read a column at a time,
    each item right-aligned in a window as wide as the widest. 19 digits
    past 2**63 - 1 wrap to a negative int64, kept after a "-": refused as a
    child id and as a coordinate, as json's reading of them is."""
    if not (text.startswith(b"[") and text.endswith(b"]")):
        return None
    buf = np.frombuffer(text, np.uint8)
    at = np.flatnonzero((buf == ord(",")) | (buf >= ord("[")))  # "]" and every letter are >= "["
    kind = buf[at]
    brackets = np.flatnonzero(kind != ord(","))
    opens, closes = brackets[0::2], brackets[1::2]
    first, last = at[opens], at[closes]
    if (len(brackets) != 2 * n or kind[brackets].tobytes() != b"[]" * n
            or np.any(closes[:-1] + 2 != opens[1:]) or np.any(first[1:] - last[:-1] != 2)):
        return None  # the last two ask for "],[" between lists
    counts = closes - opens - (last - first == 1)  # "[]" holds no item
    del kind, brackets, opens, closes, first, last
    gap = np.diff(at)
    item = gap > 1  # a byte between two separators
    if np.count_nonzero(item) != counts.sum():  # no other two separators are adjacent
        return None
    sizes = gap[item]
    sizes -= 1
    del gap
    ends = at[1:][item]
    del at, item
    neg = buf[ends - sizes] == ord("-")
    sizes -= neg
    if len(sizes) and (sizes.min() < 1 or sizes.max() > 19
                       or np.any((buf[ends - sizes] == ord("0")) & (sizes > 1))):
        return None
    w = sizes.max(initial=0)
    ends -= w  # now each window's start
    outside, values = (w - sizes).astype(np.uint8), np.zeros(len(sizes), np.int64)
    for j in range(w):
        digit = buf.take(ends, mode="clip")  # a window start before buf is outside its item
        ends += 1
        digit -= ord("0")  # wraps below "0"
        digit *= outside <= j
        if digit.max(initial=0) > 9:
            return None
        values *= 10
        values += digit
    return counts, np.negative(values, out=values, where=neg & (values > 0))


def drawing_from_json(obj: dict) -> GridDrawing:
    """Parse {"tree", "pos"}, no other key: tree_from_json reads the tree,
    and GridDrawing checks the positions."""
    if not isinstance(obj, dict) or obj.keys() != {"tree", "pos"}:
        raise ValueError('a drawing must be a JSON object with exactly "tree" and "pos"')
    return GridDrawing(tree_from_json(obj["tree"]), obj["pos"])
