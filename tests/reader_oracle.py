"""The canonical-form drawing reader that the line-by-line reader replaced,
kept as an oracle: it scans the digit runs, their signs and the '[' bytes
with numpy byte masks in newline-aligned chunks, builds the drawing by the
validating constructors, and accepts it only if its drawing_json_blocks
equal the bytes of the document one by one. ``oracle_read_canonical`` must
return what ``geometry.read_canonical`` returns on every input."""

from typing import Optional

import numpy as np

from ternarydraw.geometry import _HEAD_RE, _MIDDLE, GridDrawing, drawing_json_blocks
from ternarydraw.tree import TernaryTree

CHUNK = 1 << 18  # bytes scanned per numpy pass, bounding the per-digit arrays
_POW10 = 10 ** np.arange(19, dtype=np.int64)


def oracle_read_canonical(data: bytes, chunk: int = CHUNK) -> Optional[GridDrawing]:
    """The drawing d with ``drawing_json(d)`` equal to ``data``, with or
    without one trailing newline; None if there is none."""
    head = _HEAD_RE.match(data)
    middle = data.find(_MIDDLE.encode(), head.end()) if head else -1
    if middle < 0:
        return None
    n, root = int(head[1]), int(head[2])
    table = _child_table(data, head.end(), middle, n, chunk)
    pos = _positions(data, middle + len(_MIDDLE), len(data), n, chunk)
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


def _child_table(data: bytes, lo: int, hi: int, n: int, chunk: int) -> Optional[np.ndarray]:
    """The (n, 3) child table, -1 in the empty slots, of the n lists in
    data[lo:hi]: each id belongs to the list opened last before it. None
    unless there are n lists of at most 3 ids each."""
    scanned = _scan(data, lo, hi, chunk)
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


def _positions(data: bytes, lo: int, hi: int, n: int, chunk: int) -> Optional[np.ndarray]:
    """The n (x, y) rows of the numbers in data[lo:hi]; None unless there
    are 2n numbers."""
    scanned = _scan(data, lo, hi, chunk)
    if scanned is None or len(scanned[1]) != 2 * n:
        return None
    return scanned[1].reshape(n, 2)


def _scan(data: bytes, lo: int, hi: int, chunk: int):
    """The offsets of the digit runs in data[lo:hi] (lo >= 1), their values
    (negated after a '-') and the offsets of the '[' bytes, read in chunks
    that end at a newline. None if a run has more than 19 digits (beyond
    int64) or a chunk would hold no newline."""
    buf = np.frombuffer(data, np.uint8)
    starts, values, opens = [], [], []
    while lo < hi:
        cut = hi if hi - lo <= chunk else data.rfind(b"\n", lo, lo + chunk) + 1
        if cut <= lo:
            return None
        part = buf[lo:cut]
        digit = part - ord("0")  # wraps below "0"
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
        opens.append(lo + np.flatnonzero(part == ord("[")))
        lo = cut
    return tuple(np.concatenate(a, dtype=np.int64) if a else np.zeros(0, np.int64)
                 for a in (starts, values, opens))
