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

from .tree import TernaryTree, child_counts, index_dtype, tree_from_json, tree_to_json


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
        if bools or P.dtype.kind not in "iu":
            raise ValueError("coordinates must be integers with |c| < 2**62")
        self._adopt(P)

    @classmethod
    def from_array(cls, tree: TernaryTree, P: np.ndarray) -> GridDrawing:
        """The drawing of tree at P, an (n, 2) int64 array the caller made
        and gives up: checked as the constructor checks it, kept as it is."""
        if P.shape != (tree.n, 2):
            raise ValueError("one (x, y) position per node required")
        d = cls.__new__(cls)
        object.__setattr__(d, "tree", tree)
        d._adopt(P)
        return d

    def _adopt(self, P: np.ndarray) -> None:
        """Keep the integer positions P as int64, frozen, if |c| < COORD_LIMIT."""
        if not (P.max() < COORD_LIMIT and P.min() > -COORD_LIMIT):
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
# length, and the three pieces around the x and the y of one position row.
_HEAD = '{\n  "tree": {\n    "n": %d,\n    "root": %d,\n    "children": [\n'
_MIDDLE = '\n    ]\n  },\n  "pos": [\n'
_TAIL = "\n  ]\n}"
_CHILD_TEMPLATES = ("      []",) + tuple(
    "      [\n" + ",\n".join(["        %d"] * k) + "\n      ]" for k in (1, 2, 3))
_ROW = (b"    [\n      ", b",\n      ", b"\n    ],\n")
_BLOCK = 1 << 13  # nodes formatted per block, bounding the scratch alive at once


def drawing_json_blocks(d: GridDrawing) -> Iterator[str]:
    """The pieces of ``drawing_json(d)`` in order, the children and the
    positions of at most _BLOCK nodes each, formatted as they are asked for."""
    t, P = d.tree, d.pos
    counts, templates = child_counts(t.table), np.array(_CHILD_TEMPLATES, object)
    ids, starts = t.table[t.table >= 0], np.append(0, np.cumsum(counts))[::_BLOCK].tolist()
    yield _HEAD % (t.n, t.root)
    for i, a, b in zip(range(0, t.n, _BLOCK), starts, starts[1:] + [len(ids)]):
        if i:
            yield ",\n"
        yield ",\n".join(templates[counts[i:i + _BLOCK]].tolist()) % tuple(ids[a:b].tolist())
    yield _MIDDLE
    for i in range(0, t.n, _BLOCK):
        yield _position_rows(P[i:i + _BLOCK], last=i + _BLOCK >= t.n)
    yield _TAIL


def _position_rows(P: np.ndarray, last: bool) -> str:
    """The rows of positions P, each but the drawing's last followed by ",\n":
    a byte array from _ROW with NULs for x and y, a sign column and as many
    digit columns as the block's largest |x| or |y| has. The digits go in
    right-aligned by // 10, a leading zero left NUL, and one translate
    deletes the NULs: twice as fast as a Python int and "%d" per number."""
    fields = [(v, np.maximum(v, -v)) for v in P.T]  # np.abs, run nowhere else: 64 KB more RSS
    widths = [1 + len(str(int(q.max()))) for _, q in fields]
    row = _ROW[0] + b"\0" * widths[0] + _ROW[1] + b"\0" * widths[1] + _ROW[2]
    R = np.empty((len(P), len(row)), np.uint8)
    R[:] = np.frombuffer(row, np.uint8)
    at = len(_ROW[0])
    for (v, q), w in zip(fields, widths):
        R[:, at] = (v < 0) * ord("-")
        q = q.astype(np.uint32 if w <= 10 else np.uint64)  # unsigned, 32 bits: faster //
        for col in range(at + w - 1, at, -1):
            rest = q // 10  # faster than q % 10
            digit = q - 10 * rest + ord("0")
            if col < at + w - 1:
                digit *= q != 0
            R[:, col] = digit
            q = rest
        at += w + len(_ROW[1])
    if last:
        R[-1, -2:] = 0  # no ",\n" after the last row
    return R.tobytes().translate(None, b"\0").decode()


def drawing_json(d: GridDrawing) -> str:
    """Exactly ``json.dumps(drawing_to_json(d), indent=2)``, from blocks of
    nodes instead of the pure-Python encoder: the join of
    drawing_json_blocks(d)."""
    return "".join(drawing_json_blocks(d))


# The reader's patterns: the templates' tokens, any JSON whitespace around them.
_WHITESPACE, _SPACE = b" \t\n\r", rb"[ \t\n\r]*"
_HEAD_RE, _MIDDLE_RE, _TAIL_RE = (re.compile(lead + _SPACE.join(
    rb"(0|[1-9][0-9]{0,18})" if token == "%d" else re.escape(token.encode())
    for token in re.findall(r'"\w+"|%d|\S', template)) + end)
    for template, lead, end in ((_HEAD, _SPACE, b""), (_MIDDLE, b"", b""), (_TAIL, b"", _SPACE + rb"\Z")))
_SCAN = 1 << 18  # bytes per pass of the count of number runs: its scratch stays in cache


def read_drawing_json(data: bytes) -> Optional[GridDrawing]:
    """What ``drawing_from_json(json.loads(data))`` builds or raises, if data
    is drawing_json's document with any JSON whitespace between its tokens;
    None otherwise. The head, middle and tail are matched token by token, so
    no key hides whitespace. Then one translate deletes every whitespace
    byte, and _lists reads the two runs of lists in place in that text: the
    head, middle and tail there are their tokens alone. As many runs of "-"
    and digit bytes in data as numbers read show that no number held
    whitespace ("1 2"). The constructors check the rest, on the arrays read
    and not on copies."""
    head = _HEAD_RE.match(data)
    at = data.find(b'"', head.end()) if head else -1  # the lists hold no '"': this is "pos"
    middle = _MIDDLE_RE.match(data, max(data.rfind(b"]", 0, at), 0)) if at > 0 else None
    tail = _TAIL_RE.match(data, max(data.rfind(b"]"), 0))
    if middle is None or tail is None:
        return None
    text = data.translate(None, _WHITESPACE)
    n, a = int(head[1]), len(data[:head.end()].translate(None, _WHITESPACE))
    b = text.find(b'"', a) - len(b"]},")  # the middle is ]},"pos":[ and the tail ]}
    children = _lists(text, a, b, n)
    rows = _lists(text, b + len(b']},"pos":['), len(text) - len(b"]}"), n)
    if children is None or rows is None or _number_runs(data) != 2 + len(children[1]) + len(rows[1]):
        return None
    tree = TernaryTree.from_lists(*children, root=int(head[2]))
    if np.any(rows[0] != 2):
        return GridDrawing(tree, rows[1])  # refused: not one (x, y) row per node
    return GridDrawing.from_array(tree, rows[1].reshape(n, 2))


def _number_runs(data: bytes) -> int:
    """The number of runs of "-" and digit bytes in data, past its first
    byte ("{" or whitespace), read _SCAN bytes at a time through one
    scratch array."""
    buf, num, runs = np.frombuffer(data, np.uint8), np.empty(_SCAN + 1, np.uint8), 0
    for a in range(1, len(buf), _SCAN):
        k = len(window := buf[a - 1:a + _SCAN])
        np.less_equal(np.subtract(window, ord("-"), out=num[:k]), ord("9") - ord("-"),
                      out=num[:k].view(bool))  # wraps below "-"
        runs += np.count_nonzero(num[1:k] > num[:k - 1])
    return runs


def _lists(compact: bytes, start: int, stop: int, n: int) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The item count of each list in compact[start:stop] and the items in
    order, if it is n lists of integers joined by commas, without
    whitespace; None otherwise. The brackets alternate, "]," is followed by
    "[", and any other two adjacent separators enclose an item, but those of
    "[]". An item is 1 to 19 decimal digits, maybe after a "-", with no
    leading zero ("-0" is 0, as json reads it). Counts and sizes are
    index_dtype's; positions stay intp, as numpy indexes with them.

    The digits are read a column at a time, each item right-aligned in a
    window as wide as the widest; compact holds the head before start, so
    no window starts before it. Each nine columns are summed in uint32, and
    those sums in uint64, which holds 19 digits: one past 2**63 - 1 wraps
    to a negative int64, kept after a "-", and is refused as a child id and
    as a coordinate, as json's reading of it is. Items are taken at the
    flatnonzero of their mask: a random boolean mask indexes several times
    slower."""
    buf, offset = np.frombuffer(compact, np.uint8), index_dtype(len(compact))
    text = buf[start:stop]
    if len(text) < 2 or text[0] != ord("[") or text[-1] != ord("]"):
        return None
    at = np.flatnonzero(np.subtract(text, ord("-")) > ord("9") - ord("-"))  # wraps below "-"
    kind = text[at]  # "," "[" "]", or a byte no item holds
    brackets = np.flatnonzero(kind != ord(","))
    if len(brackets) != 2 * n or kind[brackets].tobytes() != b"[]" * n:
        return None
    span = at[brackets]  # each bracket's offset
    if np.any(brackets[2::2] - brackets[1:-1:2] != 2) or np.any(span[2::2] - span[1:-1:2] != 2):
        return None  # these ask for "],[" between lists
    counts = np.subtract(brackets[1::2], brackets[0::2], dtype=offset)
    counts -= (counts == 1) & (span[1::2] - span[0::2] == 1)  # "[]" holds no item
    del kind, brackets, span  # each array dies once read: the peak stays low
    gap = np.subtract(at[1:], at[:-1], dtype=offset)
    item = np.flatnonzero(gap > 1)  # a byte between two separators
    if len(item) != counts.sum():  # no other two separators are adjacent
        return None
    sizes = gap[item]
    sizes -= 1
    del gap
    ends = at[1:][item]
    ends += start
    del at, item
    ends -= sizes  # now each item's start
    neg = buf[ends] == ord("-")
    ends += neg
    sizes -= neg
    if len(sizes) and (sizes.min() < 1 or sizes.max() > 19
                       or np.any((buf[ends] == ord("0")) & (sizes > 1))):
        return None
    w = int(sizes.max(initial=0))
    ends += sizes
    ends -= w  # now each window's start
    outside, values = (w - sizes).astype(np.uint8), np.zeros(len(sizes), np.uint64)
    for first in range(0, w, 9):  # nine digits fit a uint32
        part = np.zeros(len(sizes), np.uint32)
        for j in range(first, min(first + 9, w)):
            digit = buf[j:][ends]
            digit -= ord("0")  # wraps below "0"
            digit *= outside <= j
            if digit.max(initial=0) > 9:
                return None
            part *= 10
            part += digit
        values *= 10 ** (j + 1 - first)
        values += part
    values = values.view(np.int64)
    values *= 1 - 2 * (neg & (values > 0)).view(np.int8)  # a branch-free negation
    return counts, values


def drawing_from_json(obj: dict) -> GridDrawing:
    """Parse {"tree", "pos"}, no other key: tree_from_json reads the tree,
    and GridDrawing checks the positions."""
    if not isinstance(obj, dict) or obj.keys() != {"tree", "pos"}:
        raise ValueError('a drawing must be a JSON object with exactly "tree" and "pos"')
    return GridDrawing(tree_from_json(obj["tree"]), obj["pos"])
