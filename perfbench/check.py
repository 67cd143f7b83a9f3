"""Output checks for the benchmark, written without the ternarydraw package.

Every check here re-derives its answer from the files and text the CLI
produced, with numpy only, so a bug in the package's own verifier cannot make
a wrong output pass. A failed check raises ``CheckError``.

Planarity is checked by rasterising: in an orthogonal drawing with integer
coordinates, two edges meet somewhere other than a shared endpoint exactly
when two of the following lattice points coincide: every node, and every
lattice point strictly inside an edge. The same point set gives the extents
(a column or row counts when it holds one of the points) and top visibility.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

# Minimum 1-2 drawing areas of the complete ternary tree T_h, h = 1..15, as
# published with the paper. Kept here rather than read from the package so
# that the table check does not trust the code it checks.
PAPER_AREAS = {
    1: 1, 2: 6, 3: 25, 4: 99, 5: 342, 6: 1184, 7: 4030, 8: 13320,
    9: 44457, 10: 144690, 11: 469221, 12: 1520189, 13: 4840478,
    14: 15550542, 15: 49461933,
}

# The general layout's threshold divisor p (paper value) and its height
# exponent c = 1 / log2(3p / (p - 1)): height <= ceil(2 n^c - 1).
GENERAL_P = 9.956
GENERAL_C = 1.0 / math.log2(3 * GENERAL_P / (GENERAL_P - 1))

# Fixed dimensions the 1-2 constructions promise at h = 12.
C1_DIMS_H12 = (4095, 2048)
C2_DIMS_H12 = (2731, 2730)

# A valid drawing of these sizes has about 2.5 lattice points per node; a
# corrupted one with huge coordinates is refused before it is rasterised.
MAX_LATTICE_POINTS = 16_000_000


class CheckError(Exception):
    """An output that is wrong, or that could not be read."""


class GuaranteeError(CheckError):
    """A valid drawing that misses a guarantee its algorithm promises; its
    extents are still known."""

    def __init__(self, message: str, dims: "Dims"):
        super().__init__(message)
        self.dims = dims


@dataclass(frozen=True)
class Dims:
    width: int
    height: int

    @property
    def area(self) -> int:
        return self.width * self.height


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def tree_sha256(children: list) -> str:
    """Digest of a children table in the drawing JSON's list-of-lists form."""
    return hashlib.sha256(json.dumps(children, separators=(",", ":")).encode()).hexdigest()


def _require(cond, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _tree_levels(children: list, root: int):
    """Validate a rooted tree with at most 3 children per node; return
    (parent, kids, counts, levels) where levels lists node ids by depth."""
    n = len(children)
    _require(n >= 1, "tree has no nodes")
    _require(0 <= root < n, "root id out of range")
    _require(all(type(k) is list and len(k) <= 3 for k in children),
             "a node has more than 3 children")
    counts = np.fromiter((len(k) for k in children), np.int64, n)
    _require(int(counts.sum()) == n - 1, "edge count is not n - 1")
    flat = [c for k in children for c in k]
    _require(all(type(c) is int for c in flat), "child ids must be integers")
    kids = np.array(flat, dtype=np.int64)
    if n > 1:
        _require(kids.min() >= 0 and kids.max() < n, "child id out of range")
        _require(np.unique(kids).size == n - 1, "a node has two parents")
        _require(not np.any(kids == root), "the root is somebody's child")
    parent = np.full(n, -1, np.int64)
    parent[kids] = np.repeat(np.arange(n), counts)
    starts = np.cumsum(counts) - counts
    levels = []
    level = np.array([root], dtype=np.int64)
    seen = 0
    while level.size:
        levels.append(level)
        seen += level.size
        _require(seen <= n, "tree has a cycle")
        lens = counts[level]
        total = int(lens.sum())
        idx = np.repeat(starts[level], lens) + (np.arange(total) - np.repeat(np.cumsum(lens) - lens, lens))
        level = kids[idx]
    _require(seen == n, "tree is not connected")
    return parent, kids, counts, levels


def _positions(pos: list, n: int) -> np.ndarray:
    _require(type(pos) is list and len(pos) == n, "one position per node required")
    _require(all(type(p) is list and len(p) == 2 for p in pos), "a position is not an [x, y] pair")
    flat = [c for p in pos for c in p]
    _require(all(type(c) is int for c in flat), "a coordinate is not an integer")
    return np.array(flat, dtype=np.int64).reshape(n, 2)


def _lattice_points(P: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Nodes plus every lattice point strictly inside an edge; raises if an
    edge is not a positive-length horizontal or vertical segment."""
    child = np.flatnonzero(parent >= 0)
    a = P[parent[child]]
    d = P[child] - a
    _require(np.all((d[:, 0] == 0) != (d[:, 1] == 0)), "an edge is not horizontal or vertical")
    inner = np.abs(d).sum(axis=1) - 1
    total = int(inner.sum())
    _require(total + len(P) <= MAX_LATTICE_POINTS, "drawing has too many lattice points to check")
    span = P.max(axis=0) - P.min(axis=0) + 1
    # more points than grid cells in the node hull means two coincide
    _require(total + len(P) <= int(span[0]) * int(span[1]), "two edges share a point")
    e = np.repeat(np.arange(len(child)), inner)
    k = np.arange(total) - np.repeat(np.cumsum(inner) - inner, inner) + 1
    return np.concatenate([P, a[e] + np.sign(d)[e] * k[:, None]])


def _subtree_boxes_disjoint(P, parent, kids, counts, levels) -> bool:
    """Closed bounding boxes of sibling subtrees are pairwise disjoint."""
    box = np.concatenate([P, P], axis=1)  # xmin, ymin, xmax, ymax
    for level in reversed(levels[1:]):
        par = parent[level]
        for col, fold in ((0, np.minimum), (1, np.minimum), (2, np.maximum), (3, np.maximum)):
            fold.at(box[:, col], par, box[level, col])
    starts = np.cumsum(counts) - counts
    for i, j in ((0, 1), (0, 2), (1, 2)):
        owners = np.flatnonzero(counts > j)
        a = box[kids[starts[owners] + i]]
        b = box[kids[starts[owners] + j]]
        overlap = ((a[:, 0] <= b[:, 2]) & (b[:, 0] <= a[:, 2])
                   & (a[:, 1] <= b[:, 3]) & (b[:, 1] <= a[:, 3]))
        if np.any(overlap):
            return False
    return True


def check_drawing(obj, *, n: int, algo: str, complete_h: int | None = None,
                  tree_digest: str | None = None) -> Dims:
    """Check a drawing JSON object from ``draw`` against every guarantee its
    algorithm promises; return its extents."""
    _require(isinstance(obj, dict) and isinstance(obj.get("tree"), dict), "no tree in drawing")
    tree = obj["tree"]
    children = tree.get("children")
    root = tree.get("root", 0)
    _require(type(children) is list and len(children) == n, f"drawing does not have {n} nodes")
    _require(tree.get("n") in (None, n), "declared node count is wrong")
    _require(type(root) is int, "root id is not an integer")
    parent, kids, counts, levels = _tree_levels(children, root)
    if tree_digest is not None:
        _require(root == 0 and tree_sha256(children) == tree_digest,
                 "drawn tree is not the tree the spec names")
    if complete_h is not None:
        _require(len(levels) == complete_h, f"tree height is not {complete_h}")
        _require(np.all(counts[np.concatenate(levels[:-1])] == 3)
                 and np.all(counts[levels[-1]] == 0), "tree is not complete")

    P = _positions(obj.get("pos"), n)
    pts = _lattice_points(P, parent)
    span = pts.max(axis=0) - pts.min(axis=0) + 1
    key = (pts[:, 1] - pts[:, 1].min()) * span[0] + (pts[:, 0] - pts[:, 0].min())
    key.sort()
    _require(not np.any(key[1:] == key[:-1]), "drawing is not planar (two nodes or edges share a point)")
    rx, ry = P[root]
    _require(not np.any((pts[:, 0] == rx) & (pts[:, 1] < ry)), "root is not top-visible")
    dims = Dims(int(np.unique(pts[:, 0]).size), int(np.unique(pts[:, 1]).size))

    def promise(cond, message: str) -> None:
        if not cond:
            raise GuaranteeError(message, dims)

    if algo == "general":
        promise(dims.width <= n, f"width {dims.width} exceeds n = {n}")
        bound = math.ceil(2 * n ** GENERAL_C - 1)
        promise(dims.height <= bound, f"height {dims.height} exceeds 2n^c - 1 = {bound}")
    else:
        promise(_subtree_boxes_disjoint(P, parent, kids, counts, levels),
                "sibling subtree boxes overlap")
    if algo == "c1" and complete_h == 12:
        promise((dims.width, dims.height) == C1_DIMS_H12, f"c1 drawing is {dims}, not 4095x2048")
    if algo == "c2" and complete_h == 12:
        promise((dims.width, dims.height) == C2_DIMS_H12, f"c2 drawing is {dims}, not 2731x2730")
    if algo == "pareto-min" and complete_h in PAPER_AREAS:
        promise(dims.area == PAPER_AREAS[complete_h],
                f"pareto-min area {dims.area} is not the minimum {PAPER_AREAS[complete_h]}")
    return dims


def check_draw_summary(stderr: str, n: int, dims: Dims) -> None:
    """The ``nodes= width= height= area=`` line ``draw`` prints must match."""
    want = f"nodes={n} width={dims.width} height={dims.height} area={dims.area}"
    lines = stderr.strip().splitlines()
    _require(bool(lines) and lines[-1].strip() == want, f"draw printed {lines[-1:]!r}, expected {want!r}")


def check_verify_report(stdout: str, dims: Dims, one_two: bool) -> None:
    """The ``verify`` report must say the drawing is valid and give the
    extents found here."""
    try:
        rep = json.loads(stdout)
    except ValueError as e:
        raise CheckError(f"verify printed no JSON report: {e}") from None
    _require(isinstance(rep, dict), "verify report is not an object")
    for flag in ("planar", "orthogonal", "onGrid", "topVisible") + (("subtreeSeparated",) if one_two else ()):
        _require(rep.get(flag) is True, f"verify reports {flag}={rep.get(flag)!r}")
    for field, want in (("width", dims.width), ("height", dims.height), ("area", dims.area)):
        _require(rep.get(field) == want, f"verify reports {field}={rep.get(field)!r}, expected {want}")


def check_table(stdout: str, h_max: int) -> None:
    """``table h_max`` rows must be h, n = (3^h - 1) / 2 and the paper's area."""
    rows = []
    for line in stdout.strip().splitlines()[1:]:
        toks = line.split()
        _require(len(toks) == 3 and all(t.isdigit() for t in toks), f"bad table row {line!r}")
        rows.append(tuple(int(t) for t in toks))
    want = [(h, (3 ** h - 1) // 2, PAPER_AREAS[h]) for h in range(1, h_max + 1)]
    for got, exp in zip(rows, want):
        _require(got == exp, f"table row {got} differs from the paper's {exp}")
    _require(len(rows) == len(want), f"table has {len(rows)} rows, expected {len(want)}")
